// Package gossip executes the consensus dynamics as an actual
// message-passing distributed system: one goroutine per node,
// pull-based opinion exchange over channels, and a two-phase barrier
// that realizes the paper's synchronous rounds. It exists to
// demonstrate that the abstract count-space Markov chain of
// internal/core corresponds to a real concurrent execution (the tests
// cross-validate the two), and to study fault models the abstract
// chain cannot express: crashed nodes and lossy pulls.
//
// # Synchronous round protocol
//
// Each round has two phases, coordinated by the Network:
//
//  1. Sample: every alive node sends pull requests to uniformly random
//     peers (self-loops answered locally), serves incoming requests
//     with its round-(t−1) opinion, and computes its tentative next
//     opinion from the replies: it pulls all of the sim.Rule's
//     Samples() up front, then replays the replies through Rule.Next.
//     It reports done but keeps serving.
//  2. Commit: once every node has sampled, the coordinator broadcasts
//     commit; nodes atomically adopt their next opinion. No node can
//     observe a round-t opinion while any node is still sampling
//     round t, which is exactly Definition 3.1's synchronous update.
//
// # Fault model
//
// Crashed nodes answer every pull with a failure (an RPC-error model)
// and never change their own opinion. A pull is also lost
// independently with probability LossProb. A node any of whose pulls
// fail keeps its opinion for that round (omission degrades the
// dynamics toward laziness but preserves safety; the tests quantify
// the slowdown).
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package gossip
