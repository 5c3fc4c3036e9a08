// Package load type-checks packages for the analysis framework without
// golang.org/x/tools/go/packages. Module-local packages are parsed and
// checked from source recursively; standard-library imports fall back to
// go/importer's source importer, which compiles from $GOROOT and needs no
// network or pre-built export data.
package load

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

// Package is one type-checked unit ready for analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader loads and caches packages over a shared FileSet.
type Loader struct {
	Fset *token.FileSet
	// ModulePath is the module's import path prefix (e.g. "sariadne").
	ModulePath string
	// ModuleFiles maps a module-local import path to the absolute paths of
	// its non-test Go files. It is consulted when type-checking imports.
	ModuleFiles map[string][]string

	std   types.Importer
	cache map[string]*Package
}

// NewLoader returns a loader for one module.
func NewLoader(modulePath string, moduleFiles map[string][]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:        fset,
		ModulePath:  modulePath,
		ModuleFiles: moduleFiles,
		std:         importer.ForCompiler(fset, "source", nil),
		cache:       make(map[string]*Package),
	}
}

// Import implements types.Importer so module-local dependencies resolve
// through the loader itself.
func (l *Loader) Import(path string) (*types.Package, error) {
	if files, ok := l.ModuleFiles[path]; ok {
		p, err := l.loadCached(path, files)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *Loader) loadCached(path string, files []string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

// Load type-checks the module-local package at the given import path from
// its registered non-test files.
func (l *Loader) Load(path string) (*Package, error) {
	files, ok := l.ModuleFiles[path]
	if !ok {
		return nil, fmt.Errorf("load: %s is not a registered module package", path)
	}
	return l.loadCached(path, files)
}

// LoadFiles type-checks an explicit file list as one package (used for
// package+test units and external _test packages). The result is not
// cached, so test symbols never leak into import resolution.
func (l *Loader) LoadFiles(path string, files []string) (*Package, error) {
	return l.check(path, files)
}

// WithTestVariant returns a loader that resolves path to files — the
// package together with its in-package _test.go files, which is what `go
// test` compiles an external test package against, so that it can use
// names an export_test.go file declares. Module packages importing path
// are checked again against that variant; the file set and the standard
// library importer are shared.
func (l *Loader) WithTestVariant(path string, files []string) *Loader {
	moduleFiles := make(map[string][]string, len(l.ModuleFiles))
	for p, fs := range l.ModuleFiles {
		moduleFiles[p] = fs
	}
	moduleFiles[path] = files
	return &Loader{
		Fset:        l.Fset,
		ModulePath:  l.ModulePath,
		ModuleFiles: moduleFiles,
		std:         l.std,
		cache:       make(map[string]*Package),
	}
}

// LoadDir parses every .go file in dir (including _test.go files) and
// type-checks them as one package — the analysistest entry point. Files
// with distinct package clauses (e.g. an external test package) are
// checked as separate units and their syntax is merged into one Package
// for matching; the returned Pkg/Info describe the primary (first) unit.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byPkg := make(map[string][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fn := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.PackageClauseOnly)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], fn)
	}
	var names []string
	for name := range byPkg {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Package
	for _, name := range names {
		p, err := l.check(name, byPkg[name])
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (l *Loader) check(path string, filenames []string) (*Package, error) {
	filenames = append([]string(nil), filenames...)
	sort.Strings(filenames)
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}
