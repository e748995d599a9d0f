package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// RNGPurity guards the stop/trace/observer RNG-independence contract
// (DESIGN.md "Stop conditions and RNG independence"): a stopped or
// traced run must be the byte-exact prefix of the full run of the same
// seed, which holds only because condition evaluation, trace sampling
// and observer hooks never consume a draw from an engine's RNG stream.
// The analyzer enforces it two ways:
//
//   - internal/stop and internal/trace are pure by construction: they
//     may not import internal/rng, math/rand or crypto/rand at all;
//   - any function bound to an observer/hook slot (an OnRound struct
//     field — sim.Observer's hook, which every engine's round loop
//     calls — or an argument for a func parameter named stop, observer,
//     hook or onRound) must not reach an RNG draw through any chain of
//     same-package calls. The engines' Step methods, which draw by
//     design, are not hook slots.
//
// The reachability check is intra-package: calls into other packages
// (except internal/rng and math/rand, which are draws by definition)
// are assumed pure, because those packages are themselves under this
// analyzer when convet runs over ./... .
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc: "forbids internal/rng (and math/rand) imports in internal/stop and " +
		"internal/trace, and flags observer/stop/trace hook functions that can " +
		"reach an RNG draw — stopped runs must be byte-exact prefixes",
	Contract: `DESIGN.md "Stop conditions and RNG independence"`,
	Run:      runRNGPurity,
}

// pureOnlySuffixes are the packages that must stay RNG-free wholesale.
var pureOnlySuffixes = []string{"internal/stop", "internal/trace"}

// hookParamNames are the parameter names the engines use for round
// hooks; a func-typed argument bound to one is a hook body.
var hookParamNames = map[string]bool{
	"stop":     true,
	"observer": true,
	"hook":     true,
	"onRound":  true,
}

// hookFieldNames are the struct fields the engines call between
// rounds; a func assigned to one is a hook body.
var hookFieldNames = map[string]bool{
	"OnRound": true,
}

func runRNGPurity(pass *Pass) error {
	for _, s := range pureOnlySuffixes {
		if hasPathSuffix(pass.Pkg.Path(), s) {
			banRNGImports(pass, s)
			break
		}
	}

	pc := newPurityChecker(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && hookFieldNames[key.Name] {
						pc.checkBind(kv.Value, key.Name+" field")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !hookFieldNames[sel.Sel.Name] || i >= len(n.Rhs) {
						continue
					}
					pc.checkBind(n.Rhs[i], sel.Sel.Name+" field")
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range n.Args {
					if i >= sig.Params().Len() {
						break // variadic tail can't be a named hook param
					}
					param := sig.Params().At(i)
					if !hookParamNames[param.Name()] {
						continue
					}
					if _, isFunc := param.Type().Underlying().(*types.Signature); !isFunc {
						continue
					}
					pc.checkBind(arg, param.Name()+" parameter of "+fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// banRNGImports reports every randomness import in a pure-only
// package.
func banRNGImports(pass *Pass, scope string) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case isRNGPkg(path), path == "math/rand", path == "math/rand/v2", path == "crypto/rand":
				pass.Reportf(imp.Pos(), "%s must stay RNG-free by construction (stopped runs are byte-exact prefixes); it cannot import %s", scope, path)
			}
		}
	}
}

// purityChecker computes, with memoization, whether a function can
// reach an RNG draw through same-package calls.
type purityChecker struct {
	pass *Pass
	// decls maps package-level functions and methods to their bodies.
	decls map[*types.Func]*ast.FuncDecl
	// funcVars maps variables to the single func literal assigned to
	// them, when the binding is that simple (x := func() {...}).
	funcVars map[types.Object]*ast.FuncLit
	// memo caches per-declaration results; keyed by decl so literals
	// (checked at their bind site) never collide.
	memo map[*ast.FuncDecl]purityResult
	// reported de-duplicates bind-site reports.
	reported map[token.Pos]bool
}

type purityResult struct {
	resolved bool
	drawPos  token.Pos
	drawDesc string
}

func newPurityChecker(pass *Pass) *purityChecker {
	pc := &purityChecker{
		pass:     pass,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		funcVars: make(map[types.Object]*ast.FuncLit),
		memo:     make(map[*ast.FuncDecl]purityResult),
		reported: make(map[token.Pos]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					pc.decls[obj] = fd
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit)
					if !ok {
						continue
					}
					if obj := pass.Info.ObjectOf(id); obj != nil {
						pc.funcVars[obj] = lit
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						if obj := pass.Info.ObjectOf(name); obj != nil {
							pc.funcVars[obj] = lit
						}
					}
				}
			}
			return true
		})
	}
	return pc
}

// checkBind resolves the expression bound to a hook slot and reports
// at the bind site if any resolved function can reach a draw.
func (pc *purityChecker) checkBind(expr ast.Expr, slot string) {
	if pc.reported[expr.Pos()] {
		return
	}
	for _, body := range pc.resolveFuncs(expr) {
		if res := pc.walkBody(body, make(map[*ast.FuncDecl]bool)); res.drawPos.IsValid() {
			pc.reported[expr.Pos()] = true
			pc.pass.Reportf(expr.Pos(), "function bound to %s can reach RNG draw %s (at %s); stop/trace/observer hooks must never consume RNG draws — stopped runs are byte-exact prefixes", slot, res.drawDesc, pc.pass.Fset.Position(res.drawPos))
			return
		}
	}
}

// resolveFuncs maps a bound expression to the function bodies it can
// denote: a literal, a named same-package function, a variable holding
// a literal, or a call to a same-package closure factory (whose body,
// including the returned literal, stands in for the closure).
func (pc *purityChecker) resolveFuncs(expr ast.Expr) []ast.Node {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return []ast.Node{e.Body}
	case *ast.Ident:
		if lit, ok := pc.funcVars[pc.pass.Info.ObjectOf(e)]; ok {
			return []ast.Node{lit.Body}
		}
		if fn, ok := pc.pass.Info.Uses[e].(*types.Func); ok {
			if decl := pc.decls[fn]; decl != nil {
				return []ast.Node{decl.Body}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pc.pass.Info.Uses[e.Sel].(*types.Func); ok {
			if decl := pc.decls[fn]; decl != nil {
				return []ast.Node{decl.Body}
			}
		}
	case *ast.CallExpr:
		if fn := calleeFunc(pc.pass.Info, e); fn != nil {
			if decl := pc.decls[fn]; decl != nil {
				return []ast.Node{decl.Body}
			}
		}
	}
	return nil
}

// walkBody scans a function body for RNG draws, following
// same-package calls; active guards the recursion against cycles.
func (pc *purityChecker) walkBody(body ast.Node, active map[*ast.FuncDecl]bool) purityResult {
	var res purityResult
	ast.Inspect(body, func(n ast.Node) bool {
		if res.drawPos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pc.pass.Info, call)
		if fn == nil {
			return true
		}
		if desc, draw := describeDraw(fn); draw {
			res = purityResult{resolved: true, drawPos: call.Pos(), drawDesc: desc}
			return false
		}
		if fn.Pkg() == pc.pass.Pkg {
			if decl := pc.decls[fn]; decl != nil && !active[decl] {
				if cached, ok := pc.memo[decl]; ok {
					if cached.drawPos.IsValid() {
						res = cached
						return false
					}
					return true
				}
				active[decl] = true
				inner := pc.walkBody(decl.Body, active)
				delete(active, decl)
				pc.memo[decl] = inner
				if inner.drawPos.IsValid() {
					res = inner
					return false
				}
			}
		}
		return true
	})
	return res
}

// describeDraw reports whether calling fn consumes randomness: any
// math/rand function, any method on internal/rng types, or any
// internal/rng function handed a *rng.Rand stream. Pure seed
// derivation (rng.DeriveSeed, rng.New from a constant seed) takes no
// stream argument and is allowed — creating an independent stream
// never perturbs the engine's.
func describeDraw(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	path := pkg.Path()
	if path == "math/rand" || path == "math/rand/v2" {
		return path + "." + fn.Name(), true
	}
	if !isRNGPkg(path) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), nil) + ")." + fn.Name(), true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && isRNGPkg(named.Obj().Pkg().Path()) {
			return path + "." + fn.Name() + " (consumes a stream argument)", true
		}
	}
	return "", false
}
