package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// faultSiteChecker enforces the fault-injection registry contract
// (DESIGN.md §9). Injection sites are stringly-typed chokepoints: the
// engine crosses them with Injector.Hit("site") and the spec schedules
// faults against the same names. A typo on either side does not fail —
// it silently never fires, which in a chaos suite means the scenario you
// believe you are testing is not running at all.
//
// Three rules, all anchored on the Site* string constants declared in
// internal/faults:
//
//  1. Every site argument to (*faults.Injector).Hit, and every Site
//     value in a faults.Fault / FaultSpec composite literal, must be a
//     compile-time constant equal to a registered site.
//  2. Every registered Site* constant must be returned by
//     faults.Sites() — the registry function the spec validator and the
//     fault-matrix test enumerate.
//  3. Every registered site must be exercised by the test corpus: its
//     constant name (or literal value) must appear in at least one
//     _test.go file. A site no test references is chaos coverage that
//     silently rotted.
var faultSiteChecker = &Checker{
	ID:        "fault-site-registry",
	Doc:       "fault injection sites must be registered constants, listed by Sites(), and test-exercised",
	RunModule: runFaultSite,
}

func runFaultSite(p *ModulePass) {
	faultsPkg := p.Module.PackageByPath(p.Module.Path + "/internal/faults")
	if faultsPkg == nil {
		return // module has no fault layer
	}
	sites := registeredSites(faultsPkg)
	if len(sites) == 0 {
		return
	}

	// Rule 1: constant, registered site names at every injection point.
	for _, pkg := range p.Scope {
		checkInjectionPoints(p, pkg, faultsPkg, sites)
	}

	// Rules 2 and 3 anchor on the faults package's own declarations, so
	// they only run when it is in scope (skipped for a fixture package).
	if p.InScope(faultsPkg) {
		checkSitesRegistry(p, faultsPkg, sites)
		checkSitesExercised(p, faultsPkg, sites)
	}
}

// siteConst is one registered Site* string constant.
type siteConst struct {
	obj   *types.Const
	value string
}

// registeredSites collects the Site*-prefixed string constants of the
// faults package, sorted by name.
func registeredSites(faultsPkg *Package) []siteConst {
	var out []siteConst
	scope := faultsPkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Site") {
			continue
		}
		if b, ok := c.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
			continue
		}
		out = append(out, siteConst{obj: c, value: constant.StringVal(c.Val())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Name() < out[j].obj.Name() })
	return out
}

func siteValueKnown(sites []siteConst, v string) bool {
	for _, s := range sites {
		if s.value == v {
			return true
		}
	}
	return false
}

// checkInjectionPoints validates Hit call arguments and Site fields of
// fault-plan composite literals in one package.
func checkInjectionPoints(p *ModulePass, pkg *Package, faultsPkg *Package, sites []siteConst) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				fn := calleeOf(pkg, v)
				if fn == nil || fn.Pkg() != faultsPkg.Types || fn.Name() != "Hit" || len(v.Args) == 0 {
					return true
				}
				checkSiteExpr(p, pkg, v.Args[0], sites, "Injector.Hit")
			case *ast.CompositeLit:
				tv, ok := pkg.Info.Types[v]
				if !ok {
					return true
				}
				named, ok := derefNamed(tv.Type)
				if !ok || !strings.Contains(named.Obj().Name(), "Fault") {
					return true
				}
				for _, elt := range v.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Site" {
						checkSiteExpr(p, pkg, kv.Value, sites, named.Obj().Name()+"{Site: ...}")
					}
				}
			}
			return true
		})
	}
}

// checkSiteExpr validates one site-name expression: it must be a
// compile-time string constant whose value is a registered site.
func checkSiteExpr(p *ModulePass, pkg *Package, expr ast.Expr, sites []siteConst, where string) {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		p.Report(expr.Pos(),
			fmt.Sprintf("site passed to %s is not a compile-time constant; a typo here never fires and never fails", where),
			"pass one of the faults.Site* constants")
		return
	}
	v := constant.StringVal(tv.Value)
	if !siteValueKnown(sites, v) {
		p.Report(expr.Pos(),
			fmt.Sprintf("%q passed to %s is not a registered fault site", v, where),
			"use one of the faults.Site* constants (see faults.Sites())")
	}
}

// checkSitesRegistry asserts every Site* constant is referenced inside
// faults.Sites() — the runtime registry the spec validator trusts.
func checkSitesRegistry(p *ModulePass, faultsPkg *Package, sites []siteConst) {
	sitesFn, ok := faultsPkg.Types.Scope().Lookup("Sites").(*types.Func)
	if !ok {
		return
	}
	fi := p.Module.Graph().Lookup(sitesFn)
	if fi == nil {
		return
	}
	referenced := map[*types.Const]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := fi.Pkg.Info.Uses[id].(*types.Const); ok {
				referenced[c] = true
			}
		}
		return true
	})
	for _, s := range sites {
		if !referenced[s.obj] {
			p.Report(s.obj.Pos(),
				fmt.Sprintf("site constant %s is not returned by Sites(); spec validation will reject plans that use it", s.obj.Name()),
				"add it to the Sites() registry")
		}
	}
}

// checkSitesExercised asserts every registered site appears — by
// constant name or literal value — in at least one _test.go file of the
// module (the fault-matrix fixtures).
func checkSitesExercised(p *ModulePass, faultsPkg *Package, sites []siteConst) {
	corpus := testFileCorpus(p.Module.Root)
	for _, s := range sites {
		name, value := s.obj.Name(), `"`+s.value+`"`
		exercised := false
		for _, content := range corpus {
			if strings.Contains(content, name) || strings.Contains(content, value) {
				exercised = true
				break
			}
		}
		if !exercised {
			p.Report(s.obj.Pos(),
				fmt.Sprintf("site %s (%q) is never exercised by any _test.go file; its chaos coverage has rotted", name, s.value),
				"add a fault-matrix fixture that schedules a fault at this site")
		}
	}
}

// testFileCorpus reads every _test.go file under root (skipping
// testdata, vendor, and hidden directories).
func testFileCorpus(root string) []string {
	var out []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			if data, err := os.ReadFile(path); err == nil {
				out = append(out, string(data))
			}
		}
		return nil
	})
	return out
}

// derefNamed unwraps pointers to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
