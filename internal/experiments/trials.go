package experiments

import (
	"fmt"

	"plurality"
	"plurality/internal/tablefmt"
)

// runTrials executes e and panics on error: every driver builds its
// experiments from fixed, valid parameters, so an error is a driver
// bug.
func runTrials(e plurality.Experiment) *plurality.Outcome {
	out, err := e.Run()
	if err != nil {
		panic(err)
	}
	return out
}

// runUntil runs e with each trial also ending at the first round
// (round 0 included) where cond holds, and reports per trial index
// whether cond ended it. It is the OnRound form of a custom
// termination test: a trial that reaches consensus before cond holds
// ends there with its flag false.
func runUntil(e plurality.Experiment, cond func(s plurality.Snapshot) bool) (*plurality.Outcome, []bool) {
	hit := make([]bool, max(e.NumTrials, 1))
	e.OnRound = func(trial, _ int, s plurality.Snapshot) bool {
		if cond(s) {
			hit[trial] = true
			return true
		}
		return false
	}
	return runTrials(e), hit
}

// consensusTimes returns every trial's consensus time. It panics if a
// trial did not converge within its budget, since a truncated sample
// would silently bias time statistics.
func consensusTimes(out *plurality.Outcome) []float64 {
	times := make([]float64, len(out.Trials))
	for i, tr := range out.Trials {
		if !tr.Consensus {
			panic(fmt.Sprintf("experiments: trial %d did not reach consensus within %v rounds", tr.Trial, tr.Rounds))
		}
		times[i] = tr.Rounds
	}
	return times
}

// convergedTimes returns the consensus times of the trials that
// converged within their budget, for drivers that tabulate stalled
// trials separately.
func convergedTimes(out *plurality.Outcome) []float64 {
	times := make([]float64, 0, len(out.Trials))
	for _, tr := range out.Trials {
		if tr.Consensus {
			times = append(times, tr.Rounds)
		}
	}
	return times
}

// convergedCell renders an outcome's converged share as "c/trials".
func convergedCell(out *plurality.Outcome) string {
	return tablefmt.Cell(out.Converged()) + "/" + tablefmt.Cell(len(out.Trials))
}

// hitTimes is consensusTimes for a runUntil outcome: the rounds at
// which cond ended each trial, panicking if it ended any trial
// otherwise.
func hitTimes(out *plurality.Outcome, hit []bool) []float64 {
	times := make([]float64, len(out.Trials))
	for i, tr := range out.Trials {
		if !hit[tr.Trial] {
			panic(fmt.Sprintf("experiments: trial %d ended at round %v before its stopping condition held", tr.Trial, tr.Rounds))
		}
		times[i] = tr.Rounds
	}
	return times
}
