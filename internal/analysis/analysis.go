// Package analysis implements simlint, the repository's determinism and
// correctness static-analysis suite (driven by cmd/simlint and `make
// lint`).
//
// The whole value of this reproduction rests on deterministic,
// byte-identical experiment tables: a stray time.Now, an unseeded
// math/rand draw, a side-effecting range over a map, or a goroutine
// spawned outside internal/sweep silently breaks reproducibility in ways
// the unit tests may not catch. Each checker here enforces one of those
// rules mechanically, using go/types so matches are symbol-accurate
// rather than textual (aliased imports, shadowed identifiers, and
// same-named functions from other packages neither fool it nor false-
// positive it).
//
// The suite has two kinds of checkers. Local checkers (nondet-time,
// nondet-rand, map-order, stray-goroutine, unchecked-error,
// unknown-directive) examine one package at a time. Whole-program
// checkers (fault-site-registry, hotpath-alloc) run once over the full
// module with the call graph (callgraph.go): they encode the
// cross-module contracts the fault-injection subsystem and the
// annotated hot paths rely on, where the bug is precisely that two
// far-apart places silently disagree.
//
// Findings can be suppressed at legitimate sites with an inline
// directive on the offending line or the line above:
//
//	//simlint:allow nondet-time wall-clock speed reporting is the point here
//
// The directive names one checker (or a comma-separated list) and an
// optional free-form reason. Whole-file allowlists for intrinsically
// wall-clock code (cmd/paperbench, examples/, internal/experiments/
// speed.go) live in defaultAllow below. See directives.go for the
// //simlint:hotpath annotation hotpath-alloc consumes; any other
// directive is an unknown-directive finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic raised by a checker.
type Finding struct {
	File    string `json:"file"` // module-relative, slash-separated
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Checker string `json:"checker"`
	Message string `json:"message"`
	Fix     string `json:"fix,omitempty"` // suggested remediation
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Checker, f.Message)
}

// Checker is one named analysis pass. Exactly one of Run (local,
// per-package) and RunModule (whole-program) is set.
type Checker struct {
	ID        string
	Doc       string
	Run       func(p *Pass)
	RunModule func(p *ModulePass)
}

// Global reports whether the checker needs the whole module (call
// graph, cross-package facts) rather than one package at a time.
func (c *Checker) Global() bool { return c.RunModule != nil }

// Checkers returns the full suite in stable order: the five local
// determinism checkers from the original suite, the directive checker,
// then the two whole-program invariant checkers.
func Checkers() []*Checker {
	return []*Checker{
		nondetTimeChecker,
		nondetRandChecker,
		mapOrderChecker,
		strayGoroutineChecker,
		uncheckedErrorChecker,
		unknownDirectiveChecker,
		faultSiteChecker,
		hotpathAllocChecker,
	}
}

// checkerByID resolves a checker name; nil if unknown.
func checkerByID(id string) *Checker {
	for _, c := range Checkers() {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// defaultAllow maps a checker ID to module-relative path prefixes (or
// exact files) that are exempt wholesale. These are the sites whose job
// is the thing the checker forbids: wall-clock speed reporting for
// nondet-time, the parallel sweep executor for stray-goroutine, and the
// serving layer (internal/simserve, internal/cluster, the daemon loop in
// internal/jobapi/daemon.go), which measures wall time and juggles
// goroutines around the engines without feeding either back into
// simulation state. The serving stack's other leaf packages
// (internal/jobapi's wire format, internal/metrics, internal/lru) and
// the cmd/simd and cmd/simrouter mains need no exemption. Test
// files (*_test.go) are exempt from every checker and are not analyzed
// at all.
var defaultAllow = map[string][]string{
	"nondet-time": {
		"cmd/paperbench/",               // reports measured wall time per experiment
		"cmd/nexsim/",                   // -wall flag reports run wall time
		"examples/",                     // demos print sim-vs-wall comparisons
		"internal/experiments/speed.go", // §6.3 speed tables measure wall clock
		"internal/simserve/",            // serving metrics/timeouts are wall-clock by nature
		"internal/cluster/",             // probe intervals, hedge timers, admission refill
	},
	"nondet-rand": {
		"internal/simserve/", // serving-side jitter/sampling, never simulation state
		"internal/cluster/",  // routing-side jitter, never simulation state
	},
	"stray-goroutine": {
		"internal/sweep/",           // the one sanctioned home of parallelism
		"internal/simserve/",        // request handling + waiting on pool jobs
		"internal/cluster/",         // concurrent forwarding, probe + hot-set loops
		"internal/jobapi/daemon.go", // simd/simrouter HTTP serve loop + signal-driven shutdown
	},
}

// Pass is the per-package context handed to a local checker's Run.
type Pass struct {
	Checker *Checker
	Module  *Module
	Pkg     *Package

	suppress map[string]map[int]bool // file -> line -> suppressed for this checker
	findings *[]Finding
}

// relFile converts a token.Pos to a module-relative slash path.
func relFile(m *Module, pos token.Pos) string {
	file := m.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

func (p *Pass) relFile(pos token.Pos) string { return relFile(p.Module, pos) }

// allowedFile reports whether file (module-relative) is allowlisted for
// the checker.
func allowedFile(checkerID, file string) bool {
	if strings.HasSuffix(file, "_test.go") {
		return true
	}
	for _, prefix := range defaultAllow[checkerID] {
		if file == prefix || strings.HasPrefix(file, prefix) {
			return true
		}
	}
	return false
}

// allowed reports whether file (module-relative) is allowlisted for the
// current checker.
func (p *Pass) allowed(file string) bool {
	return allowedFile(p.Checker.ID, file)
}

// Report records a finding unless the site is allowlisted or carries a
// //simlint:allow suppression on its own line or the line above.
func (p *Pass) Report(pos token.Pos, msg, fix string) {
	position := p.Module.Fset.Position(pos)
	file := p.relFile(pos)
	if p.allowed(file) {
		return
	}
	if lines := p.suppress[file]; lines[position.Line] {
		return
	}
	*p.findings = append(*p.findings, Finding{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Checker: p.Checker.ID,
		Message: msg,
		Fix:     fix,
	})
}

// ModulePass is the whole-program context handed to a global checker's
// RunModule. Scope is the set of packages findings may be reported in
// (the full module in a simlint run, a single fixture package in the
// golden tests); the checker may *read* any loaded package — the call
// graph spans them all — but must anchor findings inside Scope.
type ModulePass struct {
	Checker *Checker
	Module  *Module
	Scope   []*Package

	inScope  map[*Package]bool
	suppress map[string]map[int]bool // file -> line -> suppressed
	findings *[]Finding
}

// InScope reports whether findings may be anchored in pkg.
func (p *ModulePass) InScope(pkg *Package) bool { return p.inScope[pkg] }

// Report records a finding if pos lies inside a Scope package's files
// and the site is neither allowlisted nor suppressed inline.
func (p *ModulePass) Report(pos token.Pos, msg, fix string) {
	position := p.Module.Fset.Position(pos)
	file := relFile(p.Module, pos)
	if !p.scopeFile(position.Filename) {
		return
	}
	if allowedFile(p.Checker.ID, file) {
		return
	}
	if lines := p.suppress[file]; lines[position.Line] {
		return
	}
	*p.findings = append(*p.findings, Finding{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Checker: p.Checker.ID,
		Message: msg,
		Fix:     fix,
	})
}

// scopeFile reports whether the absolute filename belongs to a Scope
// package.
func (p *ModulePass) scopeFile(abs string) bool {
	for _, pkg := range p.Scope {
		for _, fn := range pkg.Filenames {
			if fn == abs {
				return true
			}
		}
	}
	return false
}

// AnalyzeScope runs the given checkers (all of them when nil) over the
// scope packages: local checkers per package, whole-program checkers
// once with the scope as their reporting boundary. Returns sorted
// findings.
func AnalyzeScope(m *Module, scope []*Package, checkers []*Checker) []Finding {
	if checkers == nil {
		checkers = Checkers()
	}
	// Collect suppressions once per scope file, then slice per checker.
	perFile := map[string]map[string]map[int]bool{}
	for _, pkg := range scope {
		for _, f := range pkg.Files {
			rel := filepath.ToSlash(mustRel(m.Root, m.Fset.Position(f.Pos()).Filename))
			perFile[rel] = suppressions(m.Fset, f)
		}
	}
	sliceSup := func(id string) map[string]map[int]bool {
		sup := map[string]map[int]bool{}
		for file, byChecker := range perFile {
			if lines := byChecker[id]; lines != nil {
				sup[file] = lines
			}
		}
		return sup
	}

	var findings []Finding
	for _, c := range checkers {
		if c.Global() {
			inScope := make(map[*Package]bool, len(scope))
			for _, pkg := range scope {
				inScope[pkg] = true
			}
			p := &ModulePass{
				Checker: c, Module: m, Scope: scope,
				inScope: inScope, suppress: sliceSup(c.ID), findings: &findings,
			}
			c.RunModule(p)
			continue
		}
		for _, pkg := range scope {
			pass := &Pass{Checker: c, Module: m, Pkg: pkg, suppress: sliceSup(c.ID), findings: &findings}
			c.Run(pass)
		}
	}
	sortFindings(findings)
	return findings
}

// AnalyzePackage runs the given checkers (all of them when nil) over one
// package and returns sorted findings.
func AnalyzePackage(m *Module, pkg *Package, checkers []*Checker) []Finding {
	return AnalyzeScope(m, []*Package{pkg}, checkers)
}

// AnalyzeModule loads the module rooted at root and runs the named
// checkers (all when names is empty) over every package.
func AnalyzeModule(root string, names []string) ([]Finding, error) {
	checkers, err := resolveCheckers(names)
	if err != nil {
		return nil, err
	}
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return AnalyzeScope(m, m.Pkgs, checkers), nil
}

func resolveCheckers(names []string) ([]*Checker, error) {
	if len(names) == 0 {
		return Checkers(), nil
	}
	var out []*Checker
	for _, n := range names {
		c := checkerByID(n)
		if c == nil {
			return nil, fmt.Errorf("unknown checker %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Checker < b.Checker
	})
}

func mustRel(base, target string) string {
	rel, err := filepath.Rel(base, target)
	if err != nil {
		return target
	}
	return rel
}

// inspectFuncs walks every function body in the package (declarations
// and literals), calling fn with the function node and its body. Nested
// literals are visited with their own (innermost) body.
func inspectFuncs(pkg *Package, fn func(node ast.Node, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d, d.Body)
				}
			case *ast.FuncLit:
				fn(d, d.Body)
			}
			return true
		})
	}
}
