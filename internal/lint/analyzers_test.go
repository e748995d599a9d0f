package lint_test

import (
	"testing"

	"plurality/internal/lint"
	"plurality/internal/lint/linttest"
)

// Each fixture package carries positive cases (// want lines that fail
// if the analyzer misses them), negative cases (clean shapes that fail
// the run if flagged), and a //lint:allow suppression case (which
// fails if the diagnostic either disappears or survives suppression).

func TestDetMapRange(t *testing.T) {
	linttest.Run(t, "testdata", lint.DetMapRange, "detmaprange/internal/core")
}

func TestNoRawEntropy(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRawEntropy, "norawentropy/internal/sim")
}

// The determinism analyzers also scope the replicated cluster layer:
// ledger folds must be identical on every node, so map-order
// nondeterminism and clock reads are banned there like in the kernel.

func TestDetMapRangeClusterScope(t *testing.T) {
	linttest.Run(t, "testdata", lint.DetMapRange, "detmaprange/internal/cluster")
}

func TestNoRawEntropyClusterScope(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoRawEntropy, "norawentropy/internal/cluster")
}

func TestRNGPurityImportBan(t *testing.T) {
	linttest.Run(t, "testdata", lint.RNGPurity, "rngpurity/internal/stop")
}

func TestRNGPurityHooks(t *testing.T) {
	linttest.Run(t, "testdata", lint.RNGPurity, "rngpurity/internal/core")
}

func TestDurableOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.DurableOrder, "durableorder/internal/durable")
}

// durableorder also scopes the cluster: the replica journal's appends
// must be observed before a vote or ack goes out.
func TestDurableOrderClusterScope(t *testing.T) {
	linttest.Run(t, "testdata", lint.DurableOrder, "durableorder/internal/cluster")
}

// durableorder also scopes the service: a Store lifecycle error must be
// handled — refusing the job on a failed submit, counting the rest.
func TestDurableOrderServiceScope(t *testing.T) {
	linttest.Run(t, "testdata", lint.DurableOrder, "durableorder/internal/service")
}

func TestGammaFloat(t *testing.T) {
	linttest.Run(t, "testdata", lint.GammaFloat, "gammafloat/internal/population")
}

// TestScoping pins the suffix-based package scoping: a kernel-only
// analyzer must stay silent outside its scope even on flaggable code.
func TestScoping(t *testing.T) {
	for _, tc := range []struct {
		path   string
		kernel bool
	}{
		{"plurality/internal/core", true},
		{"plurality/internal/rng", true},
		{"plurality/internal/sim", true},
		{"plurality/internal/population", true},
		{"plurality/internal/async", true},
		{"plurality/internal/graph", true},
		{"plurality/internal/gossip", true},
		{"detmaprange/internal/core", true},
		{"plurality/internal/service", false},
		{"plurality/internal/durable", false},
		{"plurality", false},
		{"internal/corex", false},
		{"myinternal/core", false},
	} {
		if got := lint.IsKernelPkg(tc.path); got != tc.kernel {
			t.Errorf("IsKernelPkg(%q) = %v, want %v", tc.path, got, tc.kernel)
		}
	}

	// The determinism scope is the kernel plus internal/cluster —
	// cluster is not a kernel package (gammafloat must stay out) but the
	// determinism analyzers cover it.
	for _, tc := range []struct {
		path   string
		scoped bool
	}{
		{"plurality/internal/cluster", true},
		{"norawentropy/internal/cluster", true},
		{"plurality/internal/core", true},
		{"plurality/internal/service", false},
		{"internal/clusterx", false},
	} {
		if got := lint.IsDeterminismScopedPkg(tc.path); got != tc.scoped {
			t.Errorf("IsDeterminismScopedPkg(%q) = %v, want %v", tc.path, got, tc.scoped)
		}
	}
	if lint.IsKernelPkg("plurality/internal/cluster") {
		t.Error("internal/cluster must not scope as a kernel package")
	}
}
