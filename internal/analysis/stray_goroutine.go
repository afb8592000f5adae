package analysis

import (
	"go/ast"
)

// strayGoroutineChecker flags `go` statements and multi-clause `select`
// statements anywhere but internal/sweep. Every engine in this
// repository is deliberately single-threaded: determinism comes from one
// logical thread of control, and the sweep executor is the only
// sanctioned axis of parallelism (across fully independent runs). A
// goroutine or a racing select inside an engine reintroduces scheduler
// nondeterminism. Simulated threads need no exception: internal/coro
// runs them as runtime coroutines (iter.Pull), which contain no `go`
// statement and never run concurrently with the engine.
var strayGoroutineChecker = &Checker{
	ID:  "stray-goroutine",
	Doc: "go statements / multi-clause selects outside internal/sweep",
	Run: runStrayGoroutine,
}

func runStrayGoroutine(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				p.Report(s.Pos(),
					"goroutine spawned outside internal/sweep — engines must stay single-threaded",
					"run the work inline, or move cross-run parallelism into internal/sweep")
			case *ast.SelectStmt:
				comm := 0
				for _, c := range s.Body.List {
					if cl, ok := c.(*ast.CommClause); ok && cl.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					p.Report(s.Pos(),
						"select with multiple communication clauses races on channel readiness",
						"restructure to a deterministic single-channel handoff")
				}
			}
			return true
		})
	}
}
