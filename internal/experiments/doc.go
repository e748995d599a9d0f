// Package experiments contains one driver per figure, table, and
// quantitative theorem of the paper. Every driver regenerates the
// corresponding artifact empirically — consensus-time scaling curves,
// drift tables, thresholds — and returns its results as renderable
// tables. The experiment IDs, paper artifacts, and expectations are
// indexed in DESIGN.md; measured-vs-paper records live in
// EXPERIMENTS.md.
//
// Every trial — a run of the dynamics from an initial configuration to
// consensus, a stopping condition or its budget — runs through
// plurality.Experiment, in every mode: sync, async, graph and gossip.
// Trial seeds therefore follow the Experiment contract (trial i of a
// batch derives everything from rng.DeriveSeed(Seed, i)) and the
// tables do not depend on Options.Parallelism. Only the one-round
// drift estimators of table1 and bern step the count-space kernel
// directly.
//
// The contract above is owned by DESIGN.md §"Experiment / artifact
// index".
package experiments
