package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// TestCatalogMigratesLegacyFile drops a pre-durability snapshot *file*
// into the data directory and checks the catalog migrates it in place to
// the WAL + checkpoint layout on first touch, with contents intact and
// subsequent writes durable.
func TestCatalogMigratesLegacyFile(t *testing.T) {
	dir := t.TempDir()
	vectors := dataset.CorelLike(80, 6, 23)
	legacy := bond.NewCollectionSegmented(vectors, 32)
	legacy.Delete(3)
	if err := legacy.Save(filepath.Join(dir, "old.bond")); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Dir: dir})
	var names map[string][]string
	doJSON(t, http.MethodGet, ts.URL+"/collections", nil, &names)
	if len(names["collections"]) != 1 || names["collections"][0] != "old" {
		t.Fatalf("legacy file not listed: %+v", names)
	}
	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/old", nil, &st)
	if st.Len != 80 || st.Live != 79 {
		t.Fatalf("legacy contents lost in migration: %+v", st)
	}
	info, err := os.Stat(filepath.Join(dir, "old.bond"))
	if err != nil || !info.IsDir() {
		t.Fatalf("legacy file not migrated to a durable directory: %v", err)
	}
	ingestBatch(t, ts.URL, "old", vectors[:5])
	var vr api.VectorResponse
	doJSON(t, http.MethodGet, ts.URL+"/collections/old/vectors/80", nil, &vr)
	if !reflect.DeepEqual(vr.Vector, vectors[0]) {
		t.Fatalf("post-migration ingest lost")
	}
	_ = s
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
