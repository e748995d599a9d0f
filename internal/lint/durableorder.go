package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// DurableOrder guards the durability contract (DESIGN.md "Durability &
// crash-recovery contract"): a completed journal record on disk must
// always imply readable result bytes, so (a) every completed Record
// the durable package builds carries its Result, making record and
// result one CRC-framed write, and (b) no Sync/Close/Rename/Write
// error on a journal path may be silently dropped, because an
// unobserved failed fsync is indistinguishable from durability.
//
// The same ignored-error check covers internal/cluster, whose only
// durable state is the replica journal: a term, vote or log entry must
// be on disk before the reply that relies on it (DESIGN.md "Cluster"),
// so a discarded Append or Sync error there is flagged. The cluster's
// Close and Write calls are network I/O and stay out of scope. It also
// covers internal/service, where a discarded error from a Store
// lifecycle call (Submitted/Started/Checkpoint/Completed/Failed) or
// from Store.Sync is flagged: a failed submitted record or sync must
// refuse the job it would acknowledge, and any other failure must at
// least be counted.
//
// Both checks are conservative and syntactic, and annotatable with
// //lint:allow durableorder for the few legitimate best-effort sites
// (e.g. Close on an already-failing error path).
var DurableOrder = &Analyzer{
	Name: "durableorder",
	Doc: "in internal/durable, flags ignored Sync/Close/Rename/Write/Truncate/Append " +
		"errors and Record literals with Op \"completed\" but no Result field; " +
		"in internal/cluster, flags ignored Append and Sync errors; in " +
		"internal/service, flags ignored Store lifecycle and Sync errors",
	Contract: `DESIGN.md "Durability & crash-recovery contract"`,
	Run:      runDurableOrder,
}

// durableCriticalMethods are the operations whose failure means bytes
// may not be durable (or a descriptor leaked mid-protocol).
var durableCriticalMethods = map[string]bool{
	"Sync":         true,
	"Close":        true,
	"Rename":       true,
	"Write":        true,
	"WriteString":  true,
	"Truncate":     true,
	"Append":       true,
	"AppendOffset": true,
}

// clusterCriticalMethods are the durability-critical operations in
// internal/cluster: journal appends and syncs.
var clusterCriticalMethods = map[string]bool{"Append": true, "AppendOffset": true, "Sync": true}

// serviceCriticalMethods are the durability-critical operations in
// internal/service: durable.Store's lifecycle writes and its Sync, which
// backs a detached job's acknowledgement.
var serviceCriticalMethods = map[string]bool{
	"Submitted":  true,
	"Started":    true,
	"Checkpoint": true,
	"Completed":  true,
	"Failed":     true,
	"Sync":       true,
}

func runDurableOrder(pass *Pass) error {
	var critical map[string]bool
	durable := false
	switch path := pass.Pkg.Path(); {
	case hasPathSuffix(path, "internal/durable"):
		critical, durable = durableCriticalMethods, true
	case hasPathSuffix(path, "internal/cluster"):
		critical = clusterCriticalMethods
	case hasPathSuffix(path, "internal/service"):
		critical = serviceCriticalMethods
	default:
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkIgnoredError(pass, critical, n.X)
			case *ast.DeferStmt:
				checkIgnoredError(pass, critical, n.Call)
			case *ast.GoStmt:
				checkIgnoredError(pass, critical, n.Call)
			case *ast.AssignStmt:
				if allBlank(n.Lhs) && len(n.Rhs) == 1 {
					checkIgnoredError(pass, critical, n.Rhs[0])
				}
			case *ast.CompositeLit:
				if durable {
					checkCompletedResult(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkIgnoredError flags a statement that discards the error result
// of a call to one of the critical methods.
func checkIgnoredError(pass *Pass, critical map[string]bool, expr ast.Expr) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !critical[fn.Name()] {
		return
	}
	if !returnsError(fn) {
		return
	}
	pass.Reportf(call.Pos(), "%s error ignored on a durability path; an unobserved failure here is indistinguishable from durability — handle it or annotate with //lint:allow durableorder <reason>", fn.Name())
}

// returnsError reports whether fn's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// allBlank reports whether every assignment target is the blank
// identifier (i.e. the statement exists to discard results).
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// checkCompletedResult flags a Record literal whose Op field has the
// constant value "completed" (written as OpCompleted or as a raw
// string) and that sets no Result: the completed record is what makes
// a result readable, so it must carry the bytes.
func checkCompletedResult(pass *Pass, lit *ast.CompositeLit) {
	named, ok := pass.Info.TypeOf(lit).(*types.Named)
	if !ok || named.Obj().Name() != "Record" {
		return
	}
	completed, result := false, false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Op":
			if tv, ok := pass.Info.Types[kv.Value]; ok && tv.Value != nil &&
				tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "completed" {
				completed = true
			}
		case "Result":
			result = true
		}
	}
	if completed && !result {
		pass.Reportf(lit.Pos(), "completed Record without Result; the completed record must carry the result bytes (completed-implies-readable), or annotate with //lint:allow durableorder <reason>")
	}
}
