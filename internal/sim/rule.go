package sim

import "strings"

// Rule is one of Definition 3.1's per-vertex update rules, the form
// the async, graph and gossip engines run. The zero value is no rule.
type Rule int

// The per-vertex rules.
const (
	// ThreeMajority adopts w1 if w1 = w2, else w3.
	ThreeMajority Rule = iota + 1
	// TwoChoices adopts w1 if w1 = w2, else keeps its own opinion.
	TwoChoices
	// Voter adopts w1.
	Voter
)

// ruleNames are the protocol names of the rules, indexed by Rule.
var ruleNames = [...]string{ThreeMajority: "3-majority", TwoChoices: "2-choices", Voter: "voter"}

// RuleByName returns the rule of a protocol name ("3-majority",
// "2-choices" or "voter"); ok is false for a protocol with no
// per-vertex form.
func RuleByName(name string) (rule Rule, ok bool) {
	for r := ThreeMajority; r <= Voter; r++ {
		if ruleNames[r] == name {
			return r, true
		}
	}
	return 0, false
}

// RuleNames lists the names RuleByName accepts, for error messages:
// "3-majority, 2-choices and voter".
func RuleNames() string {
	last := len(ruleNames) - 1
	return strings.Join(ruleNames[ThreeMajority:last], ", ") + " and " + ruleNames[last]
}

// Samples returns the most opinions one update draws: 3, 2 and 1 for
// 3-Majority, 2-Choices and Voter, and 0 for the zero or an unknown
// rule.
func (r Rule) Samples() int {
	switch r {
	case ThreeMajority:
		return 3
	case TwoChoices:
		return 2
	case Voter:
		return 1
	}
	return 0
}

// Next returns the opinion a vertex holding own adopts. draw returns
// the opinion of one uniformly sampled neighbour per call and is
// called lazily, in sample order: w1, then w2, then w3 only when
// w1 ≠ w2. So 3-Majority draws 2 or 3 times, 2-Choices twice and
// Voter once, and every engine keeps the draw order of its stream.
// Next panics on the zero or an unknown rule.
//
// The loop has one draw call site so that Next stays within the
// compiler's inlining budget: inlined into an engine's update loop,
// the engine's draw closure is inlined too, and the rule costs no
// indirect call per sample.
func (r Rule) Next(own int32, draw func() int32) int32 {
	if r < ThreeMajority || r > Voter {
		panic("sim: unknown rule")
	}
	var w1 int32
	for i := 1; ; i++ {
		w := draw()
		if i == 1 && r != Voter {
			w1 = w // the pair rules go on to w2
		} else if i == 2 && w != w1 {
			if r == TwoChoices {
				return own
			}
			// 3-Majority goes on to w3.
		} else {
			return w // Voter's w1, the agreeing w2 or 3-Majority's w3
		}
	}
}
