// Package lint is a custom static-analysis suite that enforces, at
// compile time, the contracts the rest of the repository can only
// check at runtime:
//
//   - determinism of the trial kernel (byte-identical results across
//     parallelism, batch width, and resume) — analyzers detmaprange
//     and gammafloat;
//   - the frozen RNG-stream contract (all randomness flows through
//     internal/rng seeded streams; stop conditions, trace sampling and
//     observer hooks never consume draws) — analyzers norawentropy and
//     rngpurity;
//   - the durability contract (a completed journal record carries its
//     result bytes; no silently dropped Sync/Close/Rename/Write/Append
//     errors in the store, Append errors in the cluster, or Store
//     lifecycle errors in the service) — analyzer durableorder.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf) but is self-contained on the standard
// library: packages are loaded from `go list -export -json` metadata
// and type-checked against gc export data, the same mechanism `go vet`
// drivers use. cmd/convet is the multichecker binary over the suite.
//
// Diagnostics can be suppressed, one site at a time, with an
// annotated allow directive on the flagged line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; the runner counts and prints every
// suppression so waivers stay visible. See DESIGN.md "Statically
// enforced contracts" for the mapping from each analyzer to the
// runtime contract it guards.
//
// The contract above is owned by DESIGN.md §"Statically enforced
// contracts".
package lint
