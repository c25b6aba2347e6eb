package vstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
)

func randVec(rng *rand.Rand, dims int) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = rng.Float64()
	}
	return v
}

func buildSegmented(t *testing.T, rng *rand.Rand, n, dims, segSize int) *SegStore {
	t.Helper()
	s := NewSegmented(dims, segSize)
	for i := 0; i < n; i++ {
		s.Append(randVec(rng, dims))
	}
	return s
}

func checkpointTo(t *testing.T, fs iofs.FS, dir string, s *SegStore, walSeq uint64) *CheckpointState {
	t.Helper()
	cs := s.CaptureCheckpoint(walSeq)
	if err := WriteCheckpoint(fs, dir, cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

func assertSameStore(t *testing.T, got, want *SegStore) {
	t.Helper()
	if got.Dims() != want.Dims() || got.Len() != want.Len() || got.Live() != want.Live() {
		t.Fatalf("shape: got %d×%d live %d, want %d×%d live %d",
			got.Len(), got.Dims(), got.Live(), want.Len(), want.Dims(), want.Live())
	}
	if got.NumSegments() != want.NumSegments() {
		t.Fatalf("segments: got %d want %d", got.NumSegments(), want.NumSegments())
	}
	for id := 0; id < want.Len(); id++ {
		if got.IsDeleted(id) != want.IsDeleted(id) {
			t.Fatalf("id %d: deleted %v vs %v", id, got.IsDeleted(id), want.IsDeleted(id))
		}
		if !reflect.DeepEqual(got.Row(id), want.Row(id)) {
			t.Fatalf("id %d: rows differ", id)
		}
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := crashfs.NewMemFS()
	s := buildSegmented(t, rng, 130, 5, 32) // 4 sealed + active 2
	s.Delete(3)
	s.Delete(70)
	checkpointTo(t, fs, "col", s, 1)

	got, m, err := RecoverDir(fs, "col", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.WALSeq != 1 || m.Dims != 5 || m.SegSize != 32 {
		t.Fatalf("manifest: %+v", m)
	}
	assertSameStore(t, got, s)
	// Recovered persistent ids must survive into a second capture with no
	// fresh assignments.
	cs2 := got.CaptureCheckpoint(2)
	if cs2.NextSegID != m.NextSegID {
		t.Fatalf("recovery reassigned segment ids: %d vs %d", cs2.NextSegID, m.NextSegID)
	}
}

// TestCheckpointIncremental pins the acceptance criterion: a checkpoint
// after new appends rewrites only the manifest and the active segment —
// sealed segment files are created exactly once and stay byte-stable.
func TestCheckpointIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fs := crashfs.NewMemFS()
	s := buildSegmented(t, rng, 100, 4, 32) // 3 sealed + active 4
	cs1 := checkpointTo(t, fs, "col", s, 1)

	sealedFiles := map[string][]byte{}
	for _, sg := range cs1.Sealed {
		name := filepath.Join("col", SegFileName(sg.ID))
		b, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sealedFiles[name] = b
	}
	if len(sealedFiles) != 3 {
		t.Fatalf("sealed files: %d, want 3", len(sealedFiles))
	}
	man1, _ := fs.ReadFile(filepath.Join("col", ManifestName))

	// New appends (staying inside the active segment), a tombstone inside
	// a sealed segment, another checkpoint.
	for i := 0; i < 10; i++ {
		s.Append(randVec(rng, 4))
	}
	s.Delete(5)
	checkpointTo(t, fs, "col", s, 2)

	for name, before := range sealedFiles {
		after, err := fs.ReadFile(name)
		if err != nil {
			t.Fatalf("sealed file %s vanished: %v", name, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("sealed file %s not byte-stable across checkpoints", name)
		}
		if n := fs.CreateCount(name); n != 1 {
			t.Fatalf("sealed file %s created %d times, want exactly once", name, n)
		}
	}
	man2, _ := fs.ReadFile(filepath.Join("col", ManifestName))
	if bytes.Equal(man1, man2) {
		t.Fatal("manifest did not change across checkpoints")
	}
	if _, err := fs.Stat(filepath.Join("col", ActiveFileName(1))); err == nil {
		t.Fatal("previous active checkpoint not garbage-collected")
	}

	got, _, err := RecoverDir(fs, "col", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, got, s)
}

// TestCheckpointGCAfterCompaction checks that segment files dropped by
// compaction are garbage-collected once a checkpoint commits without
// them, and that rewritten segments get fresh write-once files.
func TestCheckpointGCAfterCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := crashfs.NewMemFS()
	s := buildSegmented(t, rng, 96, 3, 32) // 3 sealed, empty active
	cs1 := checkpointTo(t, fs, "col", s, 1)
	firstSegFile := filepath.Join("col", SegFileName(cs1.Sealed[0].ID))

	for id := 0; id < 32; id++ { // kill segment 0 wholesale
		s.Delete(id)
	}
	s.Compact(0)
	cs2 := checkpointTo(t, fs, "col", s, 2)
	if len(cs2.Sealed) != 2 {
		t.Fatalf("sealed after compaction: %d", len(cs2.Sealed))
	}
	if _, err := fs.Stat(firstSegFile); err == nil {
		t.Fatalf("dropped segment file %s not garbage-collected", firstSegFile)
	}
	got, _, err := RecoverDir(fs, "col", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, got, s)
}

func TestRecoverDirErrors(t *testing.T) {
	fs := crashfs.NewMemFS()
	if _, _, err := RecoverDir(fs, "missing", RecoverOptions{}); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("missing dir: %v", err)
	}

	rng := rand.New(rand.NewSource(4))
	s := buildSegmented(t, rng, 64, 3, 32)
	checkpointTo(t, fs, "col", s, 1)

	// Bit-flip the manifest: recovery must fail with ErrCorrupt, not
	// panic or load garbage.
	man, _ := fs.ReadFile(filepath.Join("col", ManifestName))
	for _, i := range []int{0, 9, len(man) / 2, len(man) - 1} {
		mut := append([]byte(nil), man...)
		mut[i] ^= 0xff
		f, _ := fs.Create(filepath.Join("col", ManifestName))
		f.Write(mut)
		f.Close()
		if _, _, err := RecoverDir(fs, "col", RecoverOptions{}); err == nil {
			t.Fatalf("flip at %d: corrupt manifest recovered", i)
		}
	}
	f, _ := fs.Create(filepath.Join("col", ManifestName))
	f.Write(man)
	f.Close()

	// A manifest naming a segment file that is missing or truncated is
	// corruption, not silence.
	segName := filepath.Join("col", SegFileName(1))
	seg, _ := fs.ReadFile(segName)
	fs.Remove(segName)
	if _, _, err := RecoverDir(fs, "col", RecoverOptions{}); err == nil {
		t.Fatal("missing segment file recovered")
	}
	f, _ = fs.Create(segName)
	f.Write(seg[:len(seg)-5])
	f.Close()
	if _, _, err := RecoverDir(fs, "col", RecoverOptions{}); err == nil {
		t.Fatal("truncated segment file recovered")
	}
}

// olderLayouts reads the MANIFEST of each durable directory in an older
// layout checked in under testdata/legacy, keyed by what its refusal
// names.
func olderLayouts(tb testing.TB) map[string][]byte {
	tb.Helper()
	images := map[string][]byte{}
	for found, dir := range map[string]string{
		"manifest version 1":        "dir-manifest-v1",
		"segment 1 in format 1":     "dir-segment-format1",
		"294-byte statistics block": "dir-stats-block",
	} {
		img, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", dir, ManifestName))
		if err != nil {
			tb.Fatal(err)
		}
		images[found] = img
	}
	return images
}

// TestManifestRoundTrip pins EncodeManifest's bytes, which releases that
// still read the older layouts wrote too (so every directory they
// checkpointed opens), and holds the decoder to exactly that layout: each
// older one is refused with an error naming what it found and the
// remedy, and not as corruption.
func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Dims:      7,
		SegSize:   128,
		NextSegID: 9,
		WALSeq:    4,
		ActiveLen: 17,
		Segments: []ManifestSegment{
			{ID: 1, Len: 128, Deleted: []int{0, 5, 127}},
			{ID: 8, Len: 64},
		},
	}
	const pinned = "424f4e444d414e3102000000070000000000000080000000000000000900000000000000" +
		"040000000000000011000000000000000000000002000000010000000000000080000000" +
		"000000000203000000000000000000000005000000000000007f00000000000000080000" +
		"00000000004000000000000000020000000080bb7220"
	img := EncodeManifest(m)
	if got := hex.EncodeToString(img); got != pinned {
		t.Fatalf("manifest image moved:\n got %s\nwant %s", got, pinned)
	}
	got, err := DecodeManifest(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
	for found, older := range olderLayouts(t) {
		_, err := DecodeManifest(older)
		if !errors.Is(err, ErrOlderLayout) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), found) {
			t.Fatalf("%s: DecodeManifest = %v, want the older-layout refusal naming it", found, err)
		}
	}
}
