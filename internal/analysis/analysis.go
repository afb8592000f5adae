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
// The suite has eight checkers. Seven examine one package at a time,
// with go/types facts for that package and the packages it imports;
// test-only-export also reads one module-wide index of references,
// built once. Fault injection sites need no checker: a site is a
// faults.Site constant, so the compiler rejects one that does not
// exist.
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

// Checker is one named analysis pass, run once per package.
type Checker struct {
	ID  string
	Doc string
	Run func(p *Pass)
}

// Checkers returns the full suite of eight in stable order: the five
// determinism checkers from the original suite, the directive checker,
// hotpath-alloc, then test-only-export, the one that reads a
// module-wide index (Module.refs) instead of one package's facts.
func Checkers() []*Checker {
	return []*Checker{
		nondetTimeChecker,
		nondetRandChecker,
		mapOrderChecker,
		strayGoroutineChecker,
		uncheckedErrorChecker,
		unknownDirectiveChecker,
		hotpathAllocChecker,
		testOnlyExportChecker,
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
// nondet-time, the parallel sweep executor for stray-goroutine, the
// serving layer (internal/simserve, internal/cluster, the daemon loop in
// internal/jobapi/daemon.go), which measures wall time and juggles
// goroutines around the engines without feeding either back into
// simulation state, and, for test-only-export, internal/accel/acceltest,
// shared test scaffolding that imports testing. The serving stack's
// other leaf packages (internal/jobapi's wire format, internal/metrics,
// internal/lru) and the cmd/simd and cmd/simrouter mains need no
// exemption. Test files (*_test.go) are exempt from every checker and
// are not analyzed at all.
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
		"internal/cluster/",         // concurrent forwarding, probe + decay loops
		"internal/jobapi/daemon.go", // simd/simrouter HTTP serve loop + signal-driven shutdown
	},
	"test-only-export": {
		"internal/accel/acceltest/", // shared test scaffolding: it imports testing, so only tests can call it
	},
}

// Pass is the per-package context handed to a checker's Run.
type Pass struct {
	Checker *Checker
	Module  *Module
	Pkg     *Package

	suppress map[string]map[string]map[int]bool // file -> checker ID -> suppressed lines
	findings *[]Finding
}

// relFile converts a token.Pos to a module-relative slash path.
func (p *Pass) relFile(pos token.Pos) string {
	return filepath.ToSlash(mustRel(p.Module.Root, p.Module.Fset.Position(pos).Filename))
}

// allowed reports whether file (module-relative) is allowlisted for the
// current checker.
func (p *Pass) allowed(file string) bool {
	if strings.HasSuffix(file, "_test.go") {
		return true
	}
	for _, prefix := range defaultAllow[p.Checker.ID] {
		if file == prefix || strings.HasPrefix(file, prefix) {
			return true
		}
	}
	return false
}

// Report records a finding unless the site is allowlisted or carries a
// //simlint:allow suppression on its own line or the line above.
func (p *Pass) Report(pos token.Pos, msg, fix string) {
	position := p.Module.Fset.Position(pos)
	file := p.relFile(pos)
	if p.allowed(file) {
		return
	}
	if p.suppress[file][p.Checker.ID][position.Line] {
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

// AnalyzeScope runs the given checkers (all of them when nil) over
// each scope package and returns sorted findings.
func AnalyzeScope(m *Module, scope []*Package, checkers []*Checker) []Finding {
	if checkers == nil {
		checkers = Checkers()
	}
	var findings []Finding
	for _, pkg := range scope {
		sup := map[string]map[string]map[int]bool{}
		for _, f := range pkg.Files {
			rel := filepath.ToSlash(mustRel(m.Root, m.Fset.Position(f.Pos()).Filename))
			sup[rel] = suppressions(m.Fset, f)
		}
		for _, c := range checkers {
			c.Run(&Pass{Checker: c, Module: m, Pkg: pkg, suppress: sup, findings: &findings})
		}
	}
	sortFindings(findings)
	return findings
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
