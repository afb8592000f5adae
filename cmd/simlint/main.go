// Command simlint runs the repository's determinism/correctness
// static-analysis suite (internal/analysis) over the whole module: it
// loads and type-checks every non-test package from source, runs the
// checkers, and prints the findings.
//
// Usage:
//
//	simlint [-dir .] [-c checker,checker] [-json] [-list]
//
// -dir names any directory inside the module; the module root is the
// nearest go.mod above it.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on a tool
// or load error. check.sh and `make lint` run it alongside gofmt and
// go vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nexsim/internal/analysis"
)

func main() {
	var (
		dir      = flag.String("dir", ".", "directory inside the module to lint (the module root is discovered from it)")
		checkers = flag.String("c", "", "comma-separated checker IDs to run (default: all)")
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		list     = flag.Bool("list", false, "list available checkers and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range analysis.Checkers() {
			fmt.Printf("%-20s %s\n", c.ID, c.Doc)
		}
		return
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	var names []string
	if *checkers != "" {
		names = strings.Split(*checkers, ",")
	}
	findings, err := analysis.AnalyzeModule(root, names)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
			if f.Fix != "" {
				fmt.Println("\tfix:", f.Fix)
			}
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
