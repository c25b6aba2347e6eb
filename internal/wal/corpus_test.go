package wal

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bond/internal/crashfs"
)

// corpusEntry renders one seed in the go-fuzz corpus file format.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// seedImages builds the canonical seed images: a valid multi-record log,
// a torn one, a bit-flipped one, and degenerate headers.
func seedImages(t testing.TB) map[string][]byte {
	mem := crashfs.NewMemFS()
	w, err := Create(mem, "seed.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeAdd, Vectors: [][]float64{{0.1, 0.9, 0.25}}},
		{Type: TypeAddBatch, Vectors: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{Type: TypeDelete, ID: 3},
		{Type: TypeCompact, Ratio: 0.5},
		{Type: TypeSeal},
		{Type: TypeRecluster, K: 8, Seed: 1},
	} {
		if err := w.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	valid, _ := mem.ReadFile("seed.log")
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	return map[string][]byte{
		"valid-log":    valid,
		"torn-tail":    valid[:len(valid)-3],
		"bit-flipped":  flipped,
		"header-only":  valid[:headerLen],
		"magic-prefix": []byte("BONDWAL1"),
	}
}

// TestCorpusUpToDate regenerates the checked-in seed corpus when
// WAL_REGEN_CORPUS=1 and otherwise verifies it exists and decodes
// without panicking — the corpus is part of the recovery suite's
// contract, not an artifact.
func TestCorpusUpToDate(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALDecode")
	images := seedImages(t)
	if os.Getenv("WAL_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range images {
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range images {
		path := filepath.Join(dir, "seed-"+name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("seed corpus missing %s (run with WAL_REGEN_CORPUS=1): %v", path, err)
		}
		recs, good, _ := DecodeAll(data)
		if good > int64(len(data)) {
			t.Fatalf("%s: good %d beyond image", name, good)
		}
		_ = recs
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("empty seed corpus dir %s: %v", dir, err)
	}
}
