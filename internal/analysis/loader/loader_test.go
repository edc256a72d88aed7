package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModulePackage loads one real package of the enclosing module
// and checks the fields analyzers rely on.
func TestLoadModulePackage(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pkgs, err := l.Load("./internal/core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.RelPath != "internal/core" {
		t.Errorf("RelPath = %q, want internal/core", p.RelPath)
	}
	if !strings.HasSuffix(p.PkgPath, "/internal/core") {
		t.Errorf("PkgPath = %q, want a /internal/core import path", p.PkgPath)
	}
	if p.Types == nil || p.Types.Scope().Lookup("ProbEq") == nil {
		t.Errorf("package was not typechecked: ProbEq not found in scope")
	}
	if len(p.Files) == 0 || p.Info == nil {
		t.Errorf("package is missing files or type info")
	}
}

// TestLoadSkipsFixtureDirs expands ./... under a subtree that contains
// testdata fixtures and checks none of them leak into the result.
func TestLoadSkipsFixtureDirs(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pkgs, err := l.Load("./internal/analysis/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Load matched no packages under internal/analysis")
	}
	for _, p := range pkgs {
		if strings.Contains(p.RelPath, "testdata") {
			t.Errorf("Load leaked fixture package %q", p.RelPath)
		}
	}
}

// TestLoadSkipsNestedModules expands ./... over a module that contains
// a nested module and checks, as the go tool does, that the nested
// module's packages stay out of the result.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module example.com/outer\n\ngo 1.24\n",
		"a/a.go":            "package a\n\nconst A = 1\n",
		"nested/go.mod":     "module example.com/nested\n\ngo 1.24\n",
		"nested/n.go":       "package nested\n\nconst N = 2\n",
		"nested/sub/sub.go": "package sub\n\nconst S = 3\n",
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := New(root)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.RelPath)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("Load(./...) = %v, want only [a] (nested module skipped)", got)
	}
}

// TestLoadDirStdlibOnly checks the bare loader used by analysistest:
// no module context, stdlib imports typechecked from source.
func TestLoadDirStdlibOnly(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

import "sort"

func Sorted(xs []string) []string {
	sort.Strings(xs)
	return xs
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewBare().LoadDir(dir, "pkg/fix")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if p.RelPath != "pkg/fix" {
		t.Errorf("RelPath = %q, want the import path verbatim", p.RelPath)
	}
	if p.Types.Scope().Lookup("Sorted") == nil {
		t.Errorf("fixture was not typechecked: Sorted not found")
	}
}

// TestLoadHardTypeErrorFails ensures broken source is an error, not a
// silently half-analyzed package.
func TestLoadHardTypeErrorFails(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

func Broken() int {
	return "not an int"
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBare().LoadDir(dir, "fix"); err == nil {
		t.Fatalf("LoadDir typechecked a package with a hard type error")
	}
}
