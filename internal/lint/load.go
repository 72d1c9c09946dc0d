package lint

// This file loads and type-checks packages without golang.org/x/tools.
// Module-local packages are parsed and checked from source; standard
// library imports are resolved by the stdlib "source" importer. Everything
// works offline, which CI relies on.

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

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. repro/internal/hpm
	Name  string // package name from the source
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader resolves imports for type-checking: module-local paths from
// source, everything else through the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	root    string // absolute module root (directory holding go.mod)
	modpath string // module path from go.mod
	std     types.Importer
	cache   map[string]*Package
	loading map[string]bool
}

// moduleRoot walks up from dir to the directory containing go.mod and
// returns it with the declared module path.
func moduleRoot(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the module-local package at the given import
// path, caching the result.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath)))
	files, name, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	p := &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.cache[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of one directory as a single
// package, in deterministic file order.
func (l *loader) parseDir(dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, "", fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, "", fmt.Errorf("lint: %w", err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			return nil, "", fmt.Errorf("lint: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, pkgName, nil
}

// load resolves patterns as LoadProgram documents and returns the matched
// packages and the loader, whose cache holds the dependency closure
// LoadProgram hands to the interprocedural analyzers.
func load(dir string, patterns ...string) ([]*Package, *loader, error) {
	root, modpath, err := moduleRoot(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modpath: modpath,
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, walk := strings.CutSuffix(pat, "...")
		base = filepath.Join(abs, filepath.FromSlash(strings.TrimSuffix(base, "/")))
		if !strings.HasPrefix(base+string(filepath.Separator), root+string(filepath.Separator)) {
			return nil, nil, fmt.Errorf("lint: pattern %q escapes module root %s", pat, root)
		}
		if !walk {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("lint: walk %s: %w", base, err)
		}
	}
	if len(dirs) == 0 {
		return nil, nil, fmt.Errorf("lint: patterns %v matched no packages", patterns)
	}

	var pkgs []*Package
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, nil, err
		}
		path := modpath
		if rel != "." {
			path = modpath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, l, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") &&
			!strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
			return true
		}
	}
	return false
}
