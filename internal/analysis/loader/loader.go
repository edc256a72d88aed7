// Package loader parses and type-checks packages for the staccatolint
// analyzers using only the standard library. It is the stand-in for
// golang.org/x/tools/go/packages, which the build environment does not
// provide: packages inside the enclosing module are located by walking
// the module tree, and imports outside it (the standard library) are
// type-checked from source through go/importer's "source" compiler.
//
// The loader analyzes each package's non-test compilation units — the
// same set `go build` compiles — selected per the host build context
// with cgo disabled, so a run's findings do not depend on CGO_ENABLED.
package loader

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("github.com/.../pkg/query", or the
	// bare fixture path for LoadDir).
	PkgPath string
	// RelPath is PkgPath relative to the module root, or PkgPath itself
	// outside a module.
	RelPath string
	// Dir is the directory holding the package's sources.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of one module (or bare directories, for
// analysistest fixtures). It caches type-checked imports, so loading
// every package of the repo type-checks each dependency — standard
// library included — once. A Loader is not safe for concurrent use.
type Loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	std     types.ImporterFrom
	modPath string
	modRoot string
	// cache maps import path → type-checked package for module-internal
	// imports; the source importer keeps its own cache for the rest.
	cache map[string]*types.Package
	// loading guards against import cycles while recursing.
	loading map[string]bool
}

// New returns a Loader rooted at the module containing dir (the nearest
// ancestor with a go.mod). Pass "" to root at the current directory.
func New(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	l.modPath = modPath
	l.modRoot = root
	return l, nil
}

// NewBare returns a Loader with no module: every import resolves
// through the standard library importer. LoadDir is the only useful
// entry point on a bare loader; analysistest uses it for fixtures.
func NewBare() *Loader {
	return newLoader()
}

func newLoader() *Loader {
	l := &Loader{
		fset:    token.NewFileSet(),
		ctxt:    build.Default,
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	// Findings must not depend on the host's CGO_ENABLED: with cgo off,
	// the build context and the source importer both select the pure-Go
	// variants of cgo-optional packages (net, os/user).
	l.ctxt.CgoEnabled = false
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	return l
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			mp := parseModulePath(data)
			if mp == "" {
				return "", "", fmt.Errorf("loader: %s/go.mod has no module directive", dir)
			}
			return dir, mp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", errors.New("loader: no go.mod found in any parent directory")
		}
		dir = parent
	}
}

func parseModulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the given patterns to module packages and type-checks
// each. Supported patterns are the `go build` local forms: "./..."
// (every package under the module root), "./dir/..." (a subtree), and
// "./dir" (one package). Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if l.modRoot == "" {
		return nil, errors.New("loader: Load requires a module-rooted loader")
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		if err := l.expandPattern(pat, dirs); err != nil {
			return nil, err
		}
	}
	rels := make([]string, 0, len(dirs))
	for rel := range dirs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := l.loadPackageDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)), rel)
		if errors.Is(err, errNoGoFiles) {
			continue
		}
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expandPattern adds the module-relative directories pattern names to
// dirs. testdata trees, hidden directories, and nested modules (any
// subdirectory with its own go.mod) never match "...", the same
// exclusions the go tool applies.
func (l *Loader) expandPattern(pat string, dirs map[string]bool) error {
	if pat == "all" || pat == "std" {
		return fmt.Errorf("loader: unsupported pattern %q (use ./... forms)", pat)
	}
	orig := pat
	pat = strings.TrimPrefix(pat, "./")
	if rest, ok := strings.CutSuffix(pat, "..."); ok {
		rest = strings.TrimSuffix(rest, "/")
		base := filepath.Join(l.modRoot, filepath.FromSlash(rest))
		return filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) && p == base {
					return fmt.Errorf("loader: pattern %q matches no directory", orig)
				}
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != l.modRoot {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			rel, err := filepath.Rel(l.modRoot, p)
			if err != nil {
				return err
			}
			dirs[filepath.ToSlash(rel)] = true
			return nil
		})
	}
	if pat == "" || pat == "." {
		dirs["."] = true
		return nil
	}
	dirs[path.Clean(pat)] = true
	return nil
}

var errNoGoFiles = errors.New("no buildable Go files")

// loadPackageDir parses and type-checks the package in dir, whose
// module-relative path is rel.
func (l *Loader) loadPackageDir(dir, rel string) (*Package, error) {
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + rel
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	relPath := rel
	if rel == "." {
		relPath = ""
	}
	return &Package{
		PkgPath: importPath,
		RelPath: relPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// LoadDir type-checks the single package in dir under the given import
// path, resolving its imports through the standard library only — the
// analysistest entry point for fixture packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath: importPath,
		RelPath: importPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// parseDir parses dir's non-test Go files as selected by the build
// context (build tags, GOOS/GOARCH), with comments retained for the
// //lint:allow machinery.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, errNoGoFiles
		}
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGoFiles
	}
	return files, nil
}

// check type-checks files as package importPath, resolving imports
// through the loader.
func (l *Loader) check(importPath, dir string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	// Soft errors (unused variables and the like, common in lint
	// fixtures that exist only to exhibit a shape) do not stop
	// analysis; any hard type error does.
	var hard error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			var terr types.Error
			if errors.As(err, &terr) && terr.Soft {
				return
			}
			if hard == nil {
				hard = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if hard != nil {
		return nil, nil, fmt.Errorf("loader: type-checking %s: %w", importPath, hard)
	}
	return tpkg, info, nil
}

// loaderImporter adapts the Loader to types.ImporterFrom: module-
// internal paths are located under the module root and type-checked
// recursively (with caching); everything else goes to the source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(p string) (*types.Package, error) {
	return li.ImportFrom(p, "", 0)
}

func (li *loaderImporter) ImportFrom(p, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if l.modPath != "" && (p == l.modPath || strings.HasPrefix(p, l.modPath+"/")) {
		return l.importModulePackage(p)
	}
	return l.std.ImportFrom(p, srcDir, mode)
}

func (l *Loader) importModulePackage(importPath string) (*types.Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("loader: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	dir := l.modRoot
	if rel != "" {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(rel))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: importing %s: %w", importPath, err)
	}
	tpkg, _, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = tpkg
	return tpkg, nil
}
