package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// testOnlyExportChecker flags a package-level exported func, const or var
// that no non-test file references outside its own declaration. Such an
// identifier is production code that only tests run: it is read, kept
// and reviewed as part of the simulator, yet no run reaches it. Delete
// it, move it into a _test.go file, or, for an oracle several packages'
// tests compare against, keep it with a //simlint:allow that says so.
// Types and methods are out of scope: receivers and interface
// satisfaction make "unreferenced" a poor proxy for "unused" there.
//
// Unlike the other checkers it reads the whole module: its index of
// references spans every loaded package (Module.refs), built once.
var testOnlyExportChecker = &Checker{
	ID:  "test-only-export",
	Doc: "exported package-level funcs, consts and vars no non-test file references",
	Run: runTestOnlyExport,
}

func runTestOnlyExport(p *Pass) {
	refs := p.Module.refs(p.Pkg)
	check := func(id *ast.Ident, decl ast.Node, kind string) {
		if !id.IsExported() {
			return
		}
		for _, pos := range refs[p.Pkg.Info.Defs[id]] {
			if pos < decl.Pos() || pos >= decl.End() {
				return
			}
		}
		p.Report(id.Pos(),
			fmt.Sprintf("exported %s %s has no reference outside tests", kind, id.Name),
			"delete it or move it into a _test.go file")
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, d, "func")
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						check(id, s, d.Tok.String())
					}
				}
			}
		}
	}
}

// refs returns, for every object, the positions at which the module's
// non-test files use it. The index spans Module.Pkgs and is built on the
// first call; a package outside them (a fixture loaded on its own) is
// added when a pass over it first asks.
func (m *Module) refs(pkg *Package) map[types.Object][]token.Pos {
	if m.uses == nil {
		m.uses = map[types.Object][]token.Pos{}
		m.indexed = map[*Package]bool{}
		for _, p := range m.Pkgs {
			m.index(p)
		}
	}
	m.index(pkg)
	return m.uses
}

func (m *Module) index(pkg *Package) {
	if m.indexed[pkg] {
		return
	}
	m.indexed[pkg] = true
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj != nil {
				m.uses[obj] = append(m.uses[obj], id.Pos())
			}
			return true
		})
	}
}
