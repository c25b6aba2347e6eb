package vstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"reflect"
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

// withStatsBlock returns a copy of a CRC32-trailed manifest image whose
// statistics block is empty, with block spliced in and the trailer
// recomputed — the image as releases that persisted the planner's learned
// cost model wrote it. The block's u32 length field follows the magic,
// the version and five u64 fields.
func withStatsBlock(img []byte, block []byte) []byte {
	const at = len(manMagic) + 4 + 5*8
	out := append([]byte(nil), img[:at]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(block)))
	out = append(out, block...)
	out = append(out, img[at+4:len(img)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Dims:      7,
		SegSize:   128,
		NextSegID: 9,
		WALSeq:    4,
		ActiveLen: 17,
		Segments: []ManifestSegment{
			{ID: 1, Len: 128, Format: SegFormatV2, Deleted: []int{0, 5, 127}},
			{ID: 8, Len: 64, Format: SegFormatV1},
		},
	}
	img := EncodeManifest(m)
	got, err := DecodeManifest(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
	// An older manifest's non-empty statistics block is skipped: it decodes
	// to the same manifest, which re-encodes with the block empty.
	older, err := DecodeManifest(withStatsBlock(img, []byte("opaque planner block")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(older, m) || !bytes.Equal(EncodeManifest(older), img) {
		t.Fatalf("manifest with a stats block decodes to %+v, want %+v", older, m)
	}
}
