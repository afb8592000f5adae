package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The suite understands two source directives, both parsed from
// ordinary comments so they survive gofmt and need no build tags:
//
//	//simlint:allow <checker>[,<checker>...] [reason]
//	    suppress findings of the named checkers on this line and the
//	    next one (trailing on the offending line, or alone above it).
//
//	//simlint:hotpath [reason]
//	    on a function declaration (last doc-comment line, or the line
//	    above): the function is a tuned allocation-free hot path; the
//	    hotpath-alloc checker flags allocating constructs in its body.
//
// Any other //simlint: directive, and an allow that names a checker the
// suite does not have, is an unknown-directive finding.
type fileDirectives struct {
	allow   map[string]map[int]bool // checker ID -> covered lines
	hotpath map[int]bool            // lines covered by //simlint:hotpath
}

// directive splits a //simlint: comment into the directive's name and
// its arguments; ok is false for any other comment.
func directive(comment string) (name string, args []string, ok bool) {
	text, ok := strings.CutPrefix(comment, "//simlint:")
	if !ok {
		return "", nil, false
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return "", nil, true
	}
	return fields[0], fields[1:], true
}

// parseDirectives scans one file's comments for simlint directives.
// Every directive covers its own line and the line below it, so both
// the trailing-comment and line-above forms work.
func parseDirectives(fset *token.FileSet, f *ast.File) *fileDirectives {
	d := &fileDirectives{
		allow:   map[string]map[int]bool{},
		hotpath: map[int]bool{},
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, args, _ := directive(c.Text)
			line := fset.Position(c.Pos()).Line
			switch {
			case name == "allow" && len(args) > 0:
				for _, id := range strings.Split(args[0], ",") {
					if d.allow[id] == nil {
						d.allow[id] = map[int]bool{}
					}
					d.allow[id][line] = true
					d.allow[id][line+1] = true
				}
			case name == "hotpath":
				d.hotpath[line] = true
				d.hotpath[line+1] = true
			}
		}
	}
	return d
}

// suppressions returns the //simlint:allow line sets of one file,
// keyed by checker ID (the shape Pass.Report consumes).
func suppressions(fset *token.FileSet, f *ast.File) map[string]map[int]bool {
	return parseDirectives(fset, f).allow
}

// hotpathFunc reports whether decl carries a //simlint:hotpath
// directive: in its doc comment, or on the line above the declaration.
func hotpathFunc(fset *token.FileSet, dirs *fileDirectives, decl *ast.FuncDecl) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if name, _, _ := directive(c.Text); name == "hotpath" {
				return true
			}
		}
	}
	return dirs.hotpath[fset.Position(decl.Pos()).Line]
}

// checkerIDs names every checker in Checkers(), in the same order.
// unknown-directive reads it to check //simlint:allow; it is a plain
// list because going through Checkers() from one of its own checkers
// would be an initialisation cycle.
var checkerIDs = []string{
	"nondet-time", "nondet-rand", "map-order", "stray-goroutine",
	"unchecked-error", "unknown-directive", "hotpath-alloc",
	"test-only-export",
}

// unknownDirectiveChecker reports every //simlint: directive other than
// allow and hotpath, and every allow that names no checker or one the
// suite does not have. The suite ignores what it does not know, so a
// misspelled //simlint:hotpath would switch hotpath-alloc off for its
// function without a word, and the directive of a deleted checker would
// linger as a promise nothing keeps.
var unknownDirectiveChecker = &Checker{
	ID:  "unknown-directive",
	Doc: "//simlint: directives other than allow and hotpath, and allows of unknown checkers",
	Run: runUnknownDirective,
}

func runUnknownDirective(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := directive(c.Text)
				switch {
				case !ok || name == "hotpath":
				case name != "allow":
					p.Report(c.Pos(), fmt.Sprintf("unknown simlint directive %q", name),
						"spell it //simlint:allow <checker> or //simlint:hotpath, or delete the comment")
				case len(args) == 0:
					p.Report(c.Pos(), "//simlint:allow names no checker",
						"name the checker it suppresses: //simlint:allow <checker> <reason>")
				default:
					for _, id := range strings.Split(args[0], ",") {
						if !slices.Contains(checkerIDs, id) {
							p.Report(c.Pos(), fmt.Sprintf("//simlint:allow names unknown checker %q", id),
								"name a checker simlint -list prints, or delete the suppression")
						}
					}
				}
			}
		}
	}
}
