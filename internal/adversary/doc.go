// Package adversary implements the bounded adversary of the paper's
// §2.5 (studied for 3-Majority by Ghaffari & Lengler, PODC 2018): after
// every round the adversary may corrupt the opinions of up to F
// vertices, F = o(n). GL18 show 3-Majority still reaches (almost)
// consensus for F = O(√n/k^1.5); the `adv` experiment measures how the
// consensus delay grows with F and where the process stalls.
//
// Because the dynamics run on the complete graph, an adversary
// strategy is just a bounded mutation of the opinion-count vector; the
// strategies plug into core.BatchRunConfig.PostRound.
//
// The contract above is owned by DESIGN.md §"The sparse live-opinion
// engine".
package adversary
