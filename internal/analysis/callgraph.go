package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The module call graph backs the whole-program checkers:
// fault-site-registry looks up the registry's site list in it, and
// hotpath-alloc finds its //simlint:hotpath roots. Nodes are declared functions and methods
// of loaded module packages; call sites are recorded in source order,
// with deferred calls appended at the end (where they execute). Function
// literals are inlined into their enclosing declaration at the position
// they appear — a deliberate approximation: most literals here run at
// their definition site (sort comparators, sync.OnceFunc bodies), and
// treating them as part of the enclosing body keeps the walk linear.

// CallSite is one call expression inside a function body, in the order
// the linear walk visits it.
type CallSite struct {
	Pos    token.Pos
	Call   *ast.CallExpr
	Callee *types.Func // nil for builtins and non-function callees
}

// FuncInfo is one call-graph node: a declared function or method with
// its body's call sites and directive flags.
type FuncInfo struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Calls   []CallSite
	Hotpath bool // carries //simlint:hotpath
}

// Graph is the module-wide call graph over every loaded package.
type Graph struct {
	module *Module
	funcs  map[*types.Func]*FuncInfo
	order  []*FuncInfo // deterministic iteration order (file, then pos)
}

// Funcs returns every node in deterministic source order.
func (g *Graph) Funcs() []*FuncInfo { return g.order }

// Lookup resolves a function object to its node; nil when the function
// has no body in a loaded package (stdlib, interface methods).
func (g *Graph) Lookup(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return g.funcs[fn]
}

// Graph builds (or returns the cached) call graph over every package
// loaded so far. Loading more packages invalidates the cache; the next
// call rebuilds.
func (m *Module) Graph() *Graph {
	if m.graph != nil && !m.graphStale {
		return m.graph
	}
	g := &Graph{module: m, funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range m.AllLoaded() {
		for _, f := range pkg.Files {
			dirs := parseDirectives(m.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Obj:     obj,
					Decl:    fd,
					Pkg:     pkg,
					Hotpath: hotpathFunc(m.Fset, dirs, fd),
				}
				fi.Calls = collectCalls(pkg, fd.Body)
				g.funcs[obj] = fi
				g.order = append(g.order, fi)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		a := m.Fset.Position(g.order[i].Decl.Pos())
		b := m.Fset.Position(g.order[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	m.graph = g
	m.graphStale = false
	return g
}

// collectCalls walks a body in source order collecting call sites.
// Deferred calls are moved to the end of the list — that is when they
// run — in reverse (LIFO) order.
func collectCalls(pkg *Package, body *ast.BlockStmt) []CallSite {
	var normal, deferred []CallSite
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.DeferStmt:
				// The call's arguments evaluate now; the call itself runs
				// at return. Record argument sub-calls in place, the
				// deferred call at the end.
				for _, arg := range v.Call.Args {
					walk(arg, inDefer)
				}
				site := CallSite{Pos: v.Call.Pos(), Call: v.Call, Callee: calleeOf(pkg, v.Call)}
				deferred = append(deferred, site)
				// A deferred func literal's body also runs at return.
				if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
					deferred = append(deferred, collectCalls(pkg, lit.Body)...)
				}
				return false
			case *ast.CallExpr:
				// Arguments (and the callee expression) first, then the
				// call itself — matching evaluation order closely enough
				// for a linear approximation.
				ast.Inspect(v.Fun, func(y ast.Node) bool {
					if inner, ok := y.(*ast.CallExpr); ok && inner != v {
						walk(inner, inDefer)
						return false
					}
					if lit, ok := y.(*ast.FuncLit); ok {
						normal = append(normal, collectCalls(pkg, lit.Body)...)
						return false
					}
					return true
				})
				for _, arg := range v.Args {
					walk(arg, inDefer)
				}
				site := CallSite{Pos: v.Pos(), Call: v, Callee: calleeOf(pkg, v)}
				normal = append(normal, site)
				return false
			case *ast.FuncLit:
				// Inline the literal's body at its definition point.
				normal = append(normal, collectCalls(pkg, v.Body)...)
				return false
			}
			return true
		})
	}
	walk(body, false)
	for i := len(deferred) - 1; i >= 0; i-- {
		normal = append(normal, deferred[i])
	}
	return normal
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

// AllLoaded returns every package type-checked so far (the explicit
// module walk plus import dependencies and fixture packages), sorted by
// import path for deterministic graph construction.
func (m *Module) AllLoaded() []*Package {
	paths := make([]string, 0, len(m.cache))
	for p := range m.cache {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, m.cache[p])
	}
	return out
}

// PackageByPath returns the loaded package with the given import path,
// or nil.
func (m *Module) PackageByPath(path string) *Package { return m.cache[path] }
