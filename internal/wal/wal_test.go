package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TypeAdd, Vectors: [][]float64{{0.25, 0.5, 0.125}}},
		{Type: TypeAddBatch, Vectors: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{Type: TypeDelete, ID: 7},
		{Type: TypeCompact, Ratio: 0.25},
		{Type: TypeSeal},
		{Type: TypeRecluster, K: 4, Seed: -17},
	}
}

func writeSample(t *testing.T, fs iofs.FS, name string) []Record {
	t.Helper()
	w, err := Create(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if err := w.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	fs := crashfs.NewMemFS()
	want := writeSample(t, fs, "wal.log")
	data, err := fs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	got, good, derr := DecodeAll(data)
	if derr != nil {
		t.Fatalf("clean log decoded with error: %v", derr)
	}
	if good != int64(len(data)) {
		t.Fatalf("good %d != len %d", good, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTornTail cuts the log at every byte boundary and checks that
// decoding never errors structurally, never returns a partial record,
// and always reports a good offset on a record boundary.
func TestTornTail(t *testing.T) {
	fs := crashfs.NewMemFS()
	writeSample(t, fs, "wal.log")
	data, _ := fs.ReadFile("wal.log")
	full, _, _ := DecodeAll(data)

	boundaries := map[int64]int{int64(headerLen): 0}
	off := int64(headerLen)
	for i := range full {
		plen := int64(0)
		// Recompute each frame length from the image itself.
		plen = int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameLen + plen
		boundaries[off] = i + 1
	}

	for cut := 0; cut <= len(data); cut++ {
		recs, good, derr := DecodeAll(data[:cut])
		if wantN, onBoundary := boundaries[int64(cut)]; onBoundary {
			if derr != nil || len(recs) != wantN || good != int64(cut) {
				t.Fatalf("cut %d (boundary): %d recs, good %d, err %v", cut, len(recs), good, derr)
			}
			continue
		}
		if cut == 0 {
			continue
		}
		if derr == nil {
			t.Fatalf("cut %d mid-record decoded cleanly", cut)
		}
		if _, ok := boundaries[good]; !ok && good != 0 {
			t.Fatalf("cut %d: good offset %d not on a record boundary", cut, good)
		}
		if len(recs) > len(full) {
			t.Fatalf("cut %d produced %d records from %d", cut, len(recs), len(full))
		}
	}
}

// TestBitFlips flips every byte of the image and checks decoding returns
// a prefix (never a panic, never a corrupted record passed through).
func TestBitFlips(t *testing.T) {
	fs := crashfs.NewMemFS()
	writeSample(t, fs, "wal.log")
	data, _ := fs.ReadFile("wal.log")
	full, _, _ := DecodeAll(data)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		recs, good, _ := DecodeAll(mut)
		if good > int64(len(mut)) {
			t.Fatalf("flip %d: good %d beyond image", i, good)
		}
		// Every decoded record must match the original prefix, unless the
		// flip landed inside a float payload (CRC catches it; the record
		// is rejected, so anything decoded still matches the prefix).
		if len(recs) > len(full) {
			t.Fatalf("flip %d: %d records from %d", i, len(recs), len(full))
		}
	}
}

// reopen opens name for appending as a collection's recovery does: Create
// when the log is absent, else DecodeAll and OpenAppendAt on its result.
// It returns the writer and the records the log held.
func reopen(t *testing.T, fs iofs.FS, name string) (*Writer, []Record) {
	t.Helper()
	data, err := fs.ReadFile(name)
	if errors.Is(err, os.ErrNotExist) {
		w, err := Create(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		return w, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	recs, good, _ := DecodeAll(data)
	w, err := OpenAppendAt(fs, name, good, int64(len(recs)), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func TestOpenAppendTruncatesTornTail(t *testing.T) {
	fs := crashfs.NewMemFS()
	want := writeSample(t, fs, "wal.log")
	data, _ := fs.ReadFile("wal.log")
	// Simulate a crash mid-append: garbage half-record at the tail.
	torn := append(append([]byte(nil), data...), 0xde, 0xad, 0xbe)
	f, _ := fs.Create("wal.log")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, recs := reopen(t, fs, "wal.log")
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	if err := w.Append(Record{Type: TypeDelete, ID: 99}, true); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data2, _ := fs.ReadFile("wal.log")
	recs2, good, derr := DecodeAll(data2)
	if derr != nil || good != int64(len(data2)) {
		t.Fatalf("post-append log not clean: %v", derr)
	}
	if len(recs2) != len(want)+1 || recs2[len(recs2)-1].ID != 99 {
		t.Fatalf("appended record unreachable: %d records", len(recs2))
	}
}

func TestOpenAppendMissingAndGarbageHeader(t *testing.T) {
	fs := crashfs.NewMemFS()
	w, recs := reopen(t, fs, "absent.log")
	if len(recs) != 0 {
		t.Fatalf("open missing: %d recs", len(recs))
	}
	w.Close()

	f, _ := fs.Create("garbage.log")
	f.Write([]byte("BO")) // torn header
	f.Close()
	w2, recs2 := reopen(t, fs, "garbage.log")
	if len(recs2) != 0 {
		t.Fatalf("open torn-header: %d recs", len(recs2))
	}
	if err := w2.Append(Record{Type: TypeSeal}, false); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	data, _ := fs.ReadFile("garbage.log")
	if recs3, _, derr := DecodeAll(data); derr != nil || len(recs3) != 1 {
		t.Fatalf("recreated log: %v, %d recs", derr, len(recs3))
	}
}

func TestWriterStickyError(t *testing.T) {
	fs := crashfs.NewMemFS()
	w, err := Create(fs, filepath.Join("d", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	w.f = failingFile{}
	if err := w.Append(Record{Type: TypeSeal}, false); err == nil {
		t.Fatal("append through failing file succeeded")
	}
	if err := w.Append(Record{Type: TypeSeal}, false); err == nil {
		t.Fatal("writer accepted a record after a failed append")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync succeeded on failed writer")
	}
}

type failingFile struct{}

func (failingFile) Write([]byte) (int, error) { return 0, errors.New("boom") }
func (failingFile) Sync() error               { return errors.New("boom") }
func (failingFile) Close() error              { return nil }
