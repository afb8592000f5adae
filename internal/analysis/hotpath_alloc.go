package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathAllocChecker keeps the simulator's per-event cost flat
// (DESIGN.md §5.1). The paper's speed claims rest on the inner loop —
// event pop, device advance, LPN fire, trace append — doing zero
// steady-state allocation; a single composite literal or fmt call in one
// of those paths shows up directly in events/second and, worse, creates
// GC pressure that de-correlates the calibrated timing model.
//
// Functions opt in with //simlint:hotpath. Inside an annotated function
// the checker flags the allocating constructs that past tuning passes
// actually removed:
//
//   - allocating composite literals: slice and map literals, and
//     address-taken struct literals (&T{...}); plain value struct
//     literals are stack values and stay legal
//   - make / new calls
//   - fmt.* calls (alloc for interface boxing, plus formatting cost)
//   - append to a slice declared in the function without a capacity
//     (3-arg make) — the amortized-growth pattern PR 2 removed from
//     the LPN firing path
//   - function literals that capture enclosing variables (closure
//     allocation at runtime)
//
// The checker is syntactic and per-function by design: escape analysis
// would remove some of these, but on a hot path the reviewable rule is
// "none of these constructs, or an explicit //simlint:allow with the
// amortization argument".
var hotpathAllocChecker = &Checker{
	ID:  "hotpath-alloc",
	Doc: "allocating constructs inside //simlint:hotpath functions",
	Run: runHotpathAlloc,
}

func runHotpathAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		dirs := parseDirectives(p.Module.Fset, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hotpathFunc(p.Module.Fset, dirs, fd) {
				checkHotpathBody(p, fd)
			}
		}
	}
}

func checkHotpathBody(p *Pass, fd *ast.FuncDecl) {
	pkg := p.Pkg
	fname := fd.Name.Name

	// Slices declared in this function with an explicit capacity
	// (3-arg make); append to these is amortized by construction.
	capped := cappedLocals(pkg, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			// Value struct literals are stack values; only slice and map
			// literals allocate on their own.
			switch pkg.Info.Types[v].Type.Underlying().(type) {
			case *types.Slice:
				reportHotpathLit(p, v, "slice literal", fname)
				return false
			case *types.Map:
				reportHotpathLit(p, v, "map literal", fname)
				return false
			}
			return true
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					reportHotpathLit(p, lit, "&-taken composite literal", fname)
					return false
				}
			}
			return true
		case *ast.CallExpr:
			reportHotpathCall(p, pkg, fname, v, capped)
			return true
		case *ast.FuncLit:
			if capturesOuter(pkg, v) {
				p.Report(v.Pos(),
					fmt.Sprintf("closure captures enclosing variables inside hotpath function %s (allocates at runtime)", fname),
					"hoist the closure to a method or package function, or pass state explicitly")
			}
			return false // don't descend: the literal may legitimately allocate lazily
		}
		return true
	})
}

func reportHotpathLit(p *Pass, lit *ast.CompositeLit, what, fname string) {
	p.Report(lit.Pos(),
		fmt.Sprintf("%s allocates inside hotpath function %s", what, fname),
		"hoist to a struct field or pool, or annotate //simlint:allow hotpath-alloc with the amortization argument")
}

// reportHotpathCall flags make/new, fmt.*, and uncapped-append calls.
func reportHotpathCall(p *Pass, pkg *Package, fname string, call *ast.CallExpr, capped map[*types.Var]bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				p.Report(call.Pos(),
					fmt.Sprintf("%s allocates inside hotpath function %s", id.Name, fname),
					"hoist the allocation out of the hot loop or reuse a pooled buffer")
			}
		case "append":
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if v := slinkLocal(pkg, call.Args[0]); v != nil && !capped[v] {
					p.Report(call.Pos(),
						fmt.Sprintf("append to function-local slice %s without pre-sized capacity inside hotpath function %s", v.Name(), fname),
						"make the slice with an explicit capacity, or append to a reused field buffer")
				}
			}
		}
		return
	}
	if fn := calleeOf(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Report(call.Pos(),
			fmt.Sprintf("fmt.%s call inside hotpath function %s (interface boxing allocates)", fn.Name(), fname),
			"move formatting off the hot path, or annotate //simlint:allow hotpath-alloc if it only runs on error exits")
	}
}

// calleeOf resolves a call expression's static callee function or
// method, through selectors and parenthesization; nil for builtins,
// conversions and calls of function-typed values.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// cappedLocals finds slice variables assigned a 3-arg make in the body.
func cappedLocals(pkg *Package, body *ast.BlockStmt) map[*types.Var]bool {
	capped := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				continue
			}
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if lhs, ok := as.Lhs[i].(*ast.Ident); ok {
				if v := identVar(pkg, lhs); v != nil {
					capped[v] = true
				}
			}
		}
		return true
	})
	return capped
}

// slinkLocal resolves an append target to a function-local slice
// variable; nil for fields, globals, and non-identifier targets (those
// are someone else's amortization story).
func slinkLocal(pkg *Package, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	v := identVar(pkg, id)
	if v == nil || v.IsField() || v.Parent() == nil {
		return nil
	}
	// Package-level variables live in the package scope whose parent is
	// the universe; locals are nested deeper.
	if v.Parent() == v.Pkg().Scope() {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return v
}

func identVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// capturesOuter reports whether a function literal references variables
// declared outside itself (a capturing closure, which allocates).
func capturesOuter(pkg *Package, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a capture
		}
		// Declared outside the literal's extent → captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}
