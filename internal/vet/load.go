package vet

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

// Package is one loaded, type-checked package: the unit the analyzers
// inspect. Files holds the package's non-test sources with comments.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded set of packages sharing one FileSet, one type-checker
// universe (cross-package objects are pointer-identical) and one annotation
// index. Analyzers receive the whole Program: noalloc call closures are
// inherently cross-package.
type Program struct {
	Fset   *token.FileSet
	Pkgs   []*Package // sorted by import path
	Module string     // module path of the loaded module

	// Ann indexes every //acr: annotation in the loaded sources.
	Ann *Annotations
}

// Loader loads packages of one module from source, resolving intra-module
// imports recursively and standard-library imports through the compiler
// source importer — no export data, no go/packages, no network. That keeps
// the tool self-contained: the repository deliberately has no dependencies
// outside the standard library.
type Loader struct {
	Root   string // module root directory (holds go.mod)
	Module string // module path, e.g. "acr"

	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*Package
	order  []string // load completion order (dependencies first)
}

// NewLoader returns a loader for the module rooted at root. The module path
// is read from go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("vet: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("vet: no module directive in %s/go.mod", root)
	}
	l := &Loader{Root: root, Module: mod, loaded: make(map[string]*Package)}
	l.fset = token.NewFileSet()
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import resolves an import path for the type checker: module-local paths
// load from source under Root, everything else delegates to the standard
// importer. This makes Loader a types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(path, l.Module)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("vet: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.loaded[path] = nil // cycle marker
	pkg, err := l.check(path, l.dirFor(path))
	if err != nil {
		delete(l.loaded, path)
		return nil, err
	}
	l.loaded[path] = pkg
	l.order = append(l.order, path)
	return pkg, nil
}

func (l *Loader) check(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: %s: no Go files in %s", path, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// expand resolves CLI-style patterns ("./...", "./internal/sim", import
// paths) into module package paths. Directories named testdata and hidden
// directories are skipped, matching the go tool.
func (l *Loader) expand(patterns []string) ([]string, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all" || pat == l.Module+"/...":
			err := filepath.WalkDir(l.Root, func(dir string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(dir)
				if dir != l.Root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					return err
				}
				for _, e := range entries {
					if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
						rel, err := filepath.Rel(l.Root, dir)
						if err != nil {
							return err
						}
						if rel == "." {
							add(l.Module)
						} else {
							add(l.Module + "/" + filepath.ToSlash(rel))
						}
						break
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(strings.TrimPrefix(pat, "./"))
			if rel == "" || rel == "." {
				add(l.Module)
			} else {
				add(l.Module + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	return paths, nil
}

// Load type-checks the packages named by patterns (plus their module-local
// dependencies) and returns them as an analyzable Program. The returned
// Program contains exactly the matched packages; dependencies are loaded
// but only analyzed when they match too.
func (l *Loader) Load(patterns ...string) (*Program, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool)
	for _, p := range paths {
		if _, err := l.loadPath(p); err != nil {
			return nil, err
		}
		matched[p] = true
	}
	var pkgs []*Package
	for _, p := range l.order {
		if matched[p] {
			pkgs = append(pkgs, l.loaded[p])
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return l.program(pkgs), nil
}

// Programs assembled by one loader share its FileSet and object identity,
// so annotations indexed from one Load call resolve against the next.
func (l *Loader) program(pkgs []*Package) *Program {
	prog := &Program{Fset: l.fset, Pkgs: pkgs, Module: l.Module}
	prog.Ann = indexAnnotations(prog)
	return prog
}
