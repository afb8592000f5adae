package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a fully parsed and type-checked Go module. Every package is
// checked from source with the stdlib "source" importer so simlint needs
// no compiled export data and no dependencies outside the standard
// library.
type Module struct {
	Fset *token.FileSet
	Root string // absolute path of the module root (directory of go.mod)
	Path string // module path declared in go.mod
	Pkgs []*Package

	cache map[string]*Package
	std   types.Importer

	uses    map[types.Object][]token.Pos // see refs
	indexed map[*Package]bool
}

// Package is one type-checked package of the module.
type Package struct {
	ImportPath string
	Dir        string
	Filenames  []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// NewModule prepares a module loader rooted at root without eagerly
// type-checking anything; packages load (and cache) on demand as they
// are imported or requested.
func NewModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Fset:  token.NewFileSet(),
		Root:  root,
		Path:  modPath,
		cache: map[string]*Package{},
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil)
	return m, nil
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata, vendor, and hidden directories). Test files are
// excluded from analysis: they are exempt from the determinism rules and
// keeping them out avoids type-checking external test packages.
func LoadModule(root string) (*Module, error) {
	m, err := NewModule(root)
	if err != nil {
		return nil, err
	}
	root = m.Root

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		ip := m.Path
		if dir != root {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, err
			}
			ip = m.Path + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.load(ip, dir)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", ip, err)
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source out of the module tree; everything else (the stdlib) goes
// through the source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		dir := m.Root
		if path != m.Path {
			dir = filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, m.Path+"/")))
		}
		pkg, err := m.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

func (m *Module) load(importPath, dir string) (*Package, error) {
	if p, ok := m.cache[importPath]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		fn := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Filenames = append(pkg.Filenames, fn)
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(importPath, m.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, err
	}
	pkg.Types = tpkg
	m.cache[importPath] = pkg
	return pkg, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}
