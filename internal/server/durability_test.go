package server

import (
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bond"
	"bond/internal/api"
	"bond/internal/dataset"
)

// TestRestartWithoutCleanShutdown is the server-level WAL contract: a
// server that is abandoned without Close (no checkpoint, no flush — the
// in-process approximation of a crash) must come back with every
// acknowledged write, because each 2xx ingest was WAL-logged and fsynced
// before it was answered.
func TestRestartWithoutCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	vectors := dataset.CorelLike(120, 8, 17)

	s1, err := New(Config{Dir: dir}) // fsync defaults to always
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	doJSON(t, http.MethodPut, ts1.URL+"/collections/c", api.CreateRequest{Dims: 8, SegmentSize: 32}, nil)
	ingestBatch(t, ts1.URL, "c", vectors)
	if code := doJSON(t, http.MethodDelete, ts1.URL+"/collections/c/vectors/7", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	ts1.Close()
	// Deliberately no s1.Close(): the maintenance loop never ran, nothing
	// was checkpointed or snapshotted — recovery has only the initial
	// checkpoint plus the WAL.

	_, ts2 := newTestServer(t, Config{Dir: dir}) // newTestServer closes s2 in cleanup
	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts2.URL+"/collections/c", nil, &st)
	if st.Len != 120 || st.Live != 119 {
		t.Fatalf("restart lost acknowledged writes: %+v", st)
	}
	if st.Durability == nil || st.Durability.Fsync != "always" {
		t.Fatalf("collection not durable after restart: %+v", st.Durability)
	}
	var vr api.VectorResponse
	doJSON(t, http.MethodGet, ts2.URL+"/collections/c/vectors/42", nil, &vr)
	if !reflect.DeepEqual(vr.Vector, vectors[42]) {
		t.Fatalf("vector 42 corrupted across crash restart")
	}
}

// readTree maps every path under root to its bytes (nil for a directory).
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[p] = nil
			return err
		}
		tree[p], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestCatalogRefusesLegacyFile drops into the data directory what an
// earlier release could have left under a collection's name: a whole-file
// snapshot, and durable directories in the three older layouts (checked
// in under testdata/legacy: a version-1 MANIFEST, format-1 segment files,
// a statistics block). The catalog lists them, but neither a read nor a
// same-dims create opens, replaces or re-initializes one: each answers
// 409 older_layout (the files' condition, which no retry mends) with an
// error naming the remedy (an earlier release's offline import, or a
// Checkpoint under an earlier release), and every file stays byte for
// byte as it was. A name whose only trace is an interrupted in-place
// migration's staging directory is refused the same way, naming the
// rename that finishes it, so a create cannot shadow its data. DELETE
// removes the snapshot file.
func TestCatalogRefusesLegacyFile(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join("..", "..", "testdata", "legacy")
	img, err := os.ReadFile(filepath.Join(legacy, "seg-v2.bond"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "old.bond")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	// An interrupted in-place migration left only its staging directory.
	staged := filepath.Join(dir, "gone.bond")
	if err := os.Mkdir(staged+".migrating", 0o755); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, fix string }{
		{"old", "bondgen -import " + path + " -out <dir>` built from an earlier release"},
		{"gone", "mv " + staged + ".migrating"},
	}
	for _, layout := range []string{"manifest-v1", "segment-format1", "stats-block"} {
		if err := os.CopyFS(filepath.Join(dir, layout+".bond"), os.DirFS(filepath.Join(legacy, "dir-"+layout))); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ name, fix string }{layout, "call Collection.Checkpoint"})
	}
	before := readTree(t, dir)

	_, ts := newTestServer(t, Config{Dir: dir})
	var names map[string][]string
	doJSON(t, http.MethodGet, ts.URL+"/collections", nil, &names)
	if want := []string{"gone", "manifest-v1", "old", "segment-format1", "stats-block"}; !reflect.DeepEqual(names["collections"], want) {
		t.Fatalf("listed %+v, want %v", names, want)
	}
	for _, c := range cases {
		for _, req := range []struct {
			method string
			body   any
		}{{http.MethodGet, nil}, {http.MethodPut, api.CreateRequest{Dims: 6}}} {
			var e api.Error
			code := doJSON(t, req.method, ts.URL+"/collections/"+c.name, req.body, &e)
			if code != http.StatusConflict || e.Code != "older_layout" || !strings.Contains(e.Error, c.fix) {
				t.Fatalf("%s %s: %d %s %q, want 409 older_layout naming %q", req.method, c.name, code, e.Code, e.Error, c.fix)
			}
		}
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused requests changed the data directory:\n%v\nwant\n%v", after, before)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/collections/old", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived DELETE: %v", err)
	}
}

// TestDropRemovesMigrationStaging pins the life of a name whose only trace
// is an interrupted in-place migration's staging directory: GET answers
// 409 older_layout, /collections lists the name, DELETE answers 204 and
// removes the directory, and GET then answers 404.
func TestDropRemovesMigrationStaging(t *testing.T) {
	dir := t.TempDir()
	staged := filepath.Join(dir, "gone.bond.migrating")
	if err := os.MkdirAll(filepath.Join(staged, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Dir: dir})
	var e api.Error
	if code := doJSON(t, http.MethodGet, ts.URL+"/collections/gone", nil, &e); code != http.StatusConflict || e.Code != "older_layout" {
		t.Fatalf("GET: %d %s, want 409 older_layout", code, e.Code)
	}
	var names map[string][]string
	doJSON(t, http.MethodGet, ts.URL+"/collections", nil, &names)
	if want := []string{"gone"}; !reflect.DeepEqual(names["collections"], want) {
		t.Fatalf("listed %+v, want %v", names, want)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/collections/gone", nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", code)
	}
	if _, err := os.Stat(staged); !os.IsNotExist(err) {
		t.Fatalf("staging directory survived DELETE: %v", err)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/collections/gone", nil, &e); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", code)
	}
	doJSON(t, http.MethodGet, ts.URL+"/collections", nil, &names)
	if len(names["collections"]) != 0 {
		t.Fatalf("listed %+v after DELETE, want none", names)
	}
}

// TestDropRemovesDurableDirectory checks Drop closes the WAL and removes
// the whole directory, and that a re-created name starts empty.
func TestDropRemovesDurableDirectory(t *testing.T) {
	dirRoot := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dirRoot})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)
	ingestBatch(t, ts.URL, "c", [][]float64{{1, 2, 3}, {4, 5, 6}})
	if code := doJSON(t, http.MethodDelete, ts.URL+"/collections/c", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop: %d", code)
	}
	if _, err := os.Stat(filepath.Join(dirRoot, "c.bond")); !os.IsNotExist(err) {
		t.Fatalf("durable directory survives drop: %v", err)
	}
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)
	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.Len != 0 {
		t.Fatalf("re-created collection not empty: %+v", st)
	}
}
