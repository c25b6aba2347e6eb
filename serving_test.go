package bond

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// notServing are the module's packages that cmd/bondd must not link: the
// paper's baselines, the figure harness and its comparators, the synthetic
// data generators, the scan oracle and the crash-injection filesystem. A
// path ending in "/..." names a whole tree.
var notServing = []string{
	"internal/baseline/...",
	"internal/bench",
	"internal/streammerge",
	"internal/dataset",
	"internal/seqscan",
	"internal/crashfs",
}

// TestServingClosure holds the server to the code that serves: it walks
// the imports of cmd/bondd through the module's packages and fails if one
// of notServing appears. Every non-test .go file counts, whatever its
// build constraints, so no platform or tag can pull a baseline in. It
// logs the closure's lines next to the module's non-test total, so a move
// out of the server is not mistaken for a deletion.
func TestServingClosure(t *testing.T) {
	mod := modulePath(t)
	closure := map[string]int{} // package path → non-test lines
	var visit func(pkg string)
	visit = func(pkg string) {
		if _, seen := closure[pkg]; seen {
			return
		}
		dir := filepath.FromSlash("." + strings.TrimPrefix(pkg, mod))
		imports, lines := parsePackage(t, dir)
		closure[pkg] = lines
		for _, imp := range imports {
			if imp == mod || strings.HasPrefix(imp, mod+"/") {
				visit(imp)
			}
		}
	}
	visit(mod + "/cmd/bondd")

	serving := 0
	for pkg, lines := range closure {
		serving += lines
		rel := strings.TrimPrefix(pkg, mod+"/")
		for _, banned := range notServing {
			tree, isTree := strings.CutSuffix(banned, "/...")
			if rel == tree || isTree && strings.HasPrefix(rel, tree+"/") {
				t.Errorf("cmd/bondd links %s; it is not serving code", pkg)
			}
		}
	}
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || isModuleRoot(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if isSource(d.Name()) {
			total += countLines(t, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serving closure of cmd/bondd: %d packages, %d non-test lines of the module's %d", len(closure), serving, total)
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// parsePackage returns the import paths (repeats included) and the line
// count of the non-test .go files in dir.
func parsePackage(t *testing.T, dir string) (imports []string, lines int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports = append(imports, imp)
		}
		lines += countLines(t, path)
	}
	return imports, lines
}

func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// isModuleRoot reports whether dir holds a go.mod of its own, which makes
// it another module.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}
