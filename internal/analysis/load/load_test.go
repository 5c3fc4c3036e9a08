package load

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWithTestVariant type-checks an external test package that uses a
// name from its package's export_test.go through a module package that
// imports the package under test, as `go test` builds it.
func TestWithTestVariant(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a/a.go", "package a\n\ntype T struct{ N int }\n")
	hook := write("a/export_test.go", "package a\n\nfunc Hook(t *T) int { return t.N }\n")
	b := write("b/b.go", "package b\n\nimport \"m/a\"\n\nfunc New() *a.T { return &a.T{N: 1} }\n")
	xtest := write("a/a_test.go", "package a_test\n\nimport (\n\t\"m/a\"\n\t\"m/b\"\n)\n\nvar _ = a.Hook(b.New())\n")

	l := NewLoader("m", map[string][]string{"m/a": {a}, "m/b": {b}})
	if _, err := l.LoadFiles("m/a_test", []string{xtest}); err == nil {
		t.Fatal("external test checked without the export_test.go hook")
	}
	if _, err := l.WithTestVariant("m/a", []string{a, hook}).LoadFiles("m/a_test", []string{xtest}); err != nil {
		t.Fatalf("external test against the test variant: %v", err)
	}
}
