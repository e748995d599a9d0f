// Package async implements the asynchronous variants of the consensus
// dynamics (paper §1.1): at each tick a single uniformly random vertex
// updates its opinion by the protocol's rule. Cooper, Mallmann-Trenn,
// Radzik, Shimizu and Shiraga (SODA 2025) proved the asynchronous
// 3-Majority consensus time is Õ(min(kn, n^{3/2})) — one synchronous
// round corresponding to n asynchronous ticks — and the paper notes
// its techniques give an alternative proof. The async experiment
// (`conbench -run async`) checks that correspondence empirically.
//
// On the complete graph with self-loops the asynchronous process is a
// function of the count vector alone; package async evolves the counts
// through a Fenwick tree, so one tick costs O(log k). A tick draws the
// updating vertex's own opinion from the tree, then runs sim.Rule with
// further tree samples as its neighbour draws.
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package async
