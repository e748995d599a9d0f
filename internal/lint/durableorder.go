package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// DurableOrder guards the durability write-ordering contract
// (DESIGN.md "Durability & crash-recovery contract"): a completed
// journal record on disk must always imply readable result bytes, so
// (a) result bytes are made durable — ResultCache.Put: temp file,
// fsync, rename — before the completed record is appended, and (b) no
// Sync/Close/Rename/Write error on a journal or result path may be
// silently dropped, because an unobserved failed fsync is
// indistinguishable from durability.
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
		"errors and completed-record appends not preceded by a result-durability " +
		"Put in the same function; in internal/cluster, flags ignored Append and Sync " +
		"errors; in internal/service, flags ignored Store lifecycle and Sync errors",
	Contract: `DESIGN.md "Durability & crash-recovery contract"`,
	Run:      runDurableOrder,
}

// durableCriticalMethods are the operations whose failure means bytes
// may not be durable (or a descriptor leaked mid-protocol).
var durableCriticalMethods = map[string]bool{
	"Sync":        true,
	"Close":       true,
	"Rename":      true,
	"Write":       true,
	"WriteString": true,
	"Truncate":    true,
	"Append":      true,
}

// clusterCriticalMethods are the durability-critical operations in
// internal/cluster: journal appends and syncs.
var clusterCriticalMethods = map[string]bool{"Append": true, "Sync": true}

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
	switch path := pass.Pkg.Path(); {
	case hasPathSuffix(path, "internal/durable"):
		critical = durableCriticalMethods
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
			case *ast.FuncDecl:
				if n.Body != nil {
					checkCompletedOrder(pass, n)
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

// checkCompletedOrder enforces, per function, that an append of a
// completed journal record is dominated (conservatively: preceded in
// source order) by a result-durability call — a method named Put. The
// real sequence lives in Store.Completed: cache.Put(key, result)
// first, journal.Append(Record{Op: OpCompleted}) second.
func checkCompletedOrder(pass *Pass, fn *ast.FuncDecl) {
	putSeen := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		switch {
		case callee.Name() == "Put":
			putSeen = true
		case callee.Name() == "Append" && hasCompletedRecordArg(pass, call):
			if !putSeen {
				pass.Reportf(call.Pos(), "completed record appended before any result-durability Put in %s; result bytes must be durable before the completed record (completed-implies-readable), or annotate with //lint:allow durableorder <reason>", fn.Name.Name)
			}
		}
		return true
	})
}

// hasCompletedRecordArg reports whether any argument is a composite
// literal whose Op field has the constant value "completed" (whether
// written as OpCompleted or as a raw string).
func hasCompletedRecordArg(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Op" {
				continue
			}
			if tv, ok := pass.Info.Types[kv.Value]; ok && tv.Value != nil &&
				tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "completed" {
				return true
			}
		}
	}
	return false
}
