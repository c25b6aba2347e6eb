package vstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bond/internal/dataset"
	"bond/internal/quant"
)

func segFixture(t *testing.T, n, dims, segSize int) ([][]float64, *SegStore) {
	t.Helper()
	vs := dataset.CorelLike(n, dims, 99)
	return vs, SegmentedFromVectors(vs, segSize)
}

func TestSegStoreLayoutAndRows(t *testing.T) {
	vs, s := segFixture(t, 250, 8, 100)
	// Bulk loads seal the partial tail too: 100+100+50 sealed, plus an
	// empty active segment.
	if s.NumSegments() != 4 {
		t.Fatalf("segments = %d, want 4", s.NumSegments())
	}
	segs, bases := s.Segments(), s.Bases()
	if !segs[0].Sealed() || !segs[1].Sealed() || !segs[2].Sealed() || segs[3].Sealed() {
		t.Fatal("seal flags wrong: want sealed ×3, active")
	}
	if segs[3].Len() != 0 {
		t.Fatalf("active should be empty after bulk load, has %d", segs[3].Len())
	}
	if bases[0] != 0 || bases[1] != 100 || bases[2] != 200 || bases[3] != 250 {
		t.Fatalf("bases = %v", bases)
	}
	if s.Len() != 250 || s.Live() != 250 || s.Dims() != 8 {
		t.Fatalf("shape: len=%d live=%d dims=%d", s.Len(), s.Live(), s.Dims())
	}
	for _, id := range []int{0, 99, 100, 199, 200, 249} {
		row := s.Row(id)
		for d, x := range row {
			if x != vs[id][d] {
				t.Fatalf("Row(%d)[%d] = %v, want %v", id, d, x, vs[id][d])
			}
		}
	}
}

func TestSegStoreAppendSealsAtThreshold(t *testing.T) {
	s := NewSegmented(4, 3)
	for i := 0; i < 7; i++ {
		if id := s.Append([]float64{float64(i), 0, 0, 0}); id != i {
			t.Fatalf("Append returned id %d, want %d", id, i)
		}
	}
	if s.NumSegments() != 3 {
		t.Fatalf("segments = %d, want 3 (3+3+1)", s.NumSegments())
	}
	if got := s.Segments()[2].Len(); got != 1 {
		t.Fatalf("active len = %d, want 1", got)
	}
}

func TestSegStoreDimRangeSynopses(t *testing.T) {
	s := NewSegmented(2, 2)
	s.AppendBatch([][]float64{{0.1, 0.9}, {0.2, 0.8}, {0.5, 0.5}})
	seg0 := s.Segments()[0]
	if lo, hi := seg0.DimRange(0); lo != 0.1 || hi != 0.2 {
		t.Fatalf("seg0 dim0 range [%v, %v]", lo, hi)
	}
	if lo, hi := seg0.DimRange(1); lo != 0.8 || hi != 0.9 {
		t.Fatalf("seg0 dim1 range [%v, %v]", lo, hi)
	}
	if lo, hi := s.Segments()[1].DimRange(0); lo != 0.5 || hi != 0.5 {
		t.Fatalf("active dim0 range [%v, %v]", lo, hi)
	}
}

func TestSegStoreDeleteAndTombstoneRatioCompact(t *testing.T) {
	_, s := segFixture(t, 300, 4, 100)
	// Segment 0: 1 tombstone (1%); segment 1: 60 tombstones (60%).
	s.Delete(5)
	for id := 100; id < 160; id++ {
		s.Delete(id)
	}
	if s.Live() != 300-61 {
		t.Fatalf("live = %d", s.Live())
	}
	before0 := s.Segments()[0]
	mapping := s.Compact(0.5)
	// Segment 0 stays untouched (same object, tombstone kept).
	if s.Segments()[0] != before0 {
		t.Fatal("cold segment was rewritten")
	}
	if !s.IsDeleted(5) {
		t.Fatal("tombstone in cold segment should survive Compact(0.5)")
	}
	if mapping[5] != 5 {
		t.Fatalf("mapping[5] = %d, want 5 (cold segment ids stable)", mapping[5])
	}
	// Segment 1 was rewritten: its deleted ids map to -1, survivors shift.
	for id := 100; id < 160; id++ {
		if mapping[id] != -1 {
			t.Fatalf("mapping[%d] = %d, want -1", id, mapping[id])
		}
	}
	if mapping[160] != 100 {
		t.Fatalf("mapping[160] = %d, want 100", mapping[160])
	}
	if mapping[299] != 299-60 {
		t.Fatalf("mapping[299] = %d, want %d", mapping[299], 299-60)
	}
	if s.Len() != 240 {
		t.Fatalf("len after compact = %d, want 240", s.Len())
	}
	// Full compact (ratio 0) now removes the cold tombstone too.
	mapping = s.Compact(0)
	if s.Len() != 239 || s.Live() != 239 {
		t.Fatalf("after full compact: len=%d live=%d", s.Len(), s.Live())
	}
	if mapping[5] != -1 || mapping[6] != 5 {
		t.Fatalf("full compact mapping: [5]=%d [6]=%d", mapping[5], mapping[6])
	}
}

func TestSegStoreCompactDropsDeadSegment(t *testing.T) {
	_, s := segFixture(t, 200, 4, 100)
	for id := 0; id < 100; id++ {
		s.Delete(id)
	}
	nsegs := s.NumSegments()
	s.Compact(0)
	if s.NumSegments() != nsegs-1 {
		t.Fatalf("segments = %d, want %d (dead segment dropped)", s.NumSegments(), nsegs-1)
	}
	if s.Len() != 100 || s.Bases()[0] != 0 {
		t.Fatalf("len=%d bases=%v", s.Len(), s.Bases())
	}
}

func TestSegStoreFlattenMatches(t *testing.T) {
	vs, s := segFixture(t, 230, 6, 64)
	s.Delete(7)
	s.Delete(150)
	f := s.Flatten()
	if f.Len() != 230 || f.Live() != 228 {
		t.Fatalf("flatten shape: len=%d live=%d", f.Len(), f.Live())
	}
	for d := 0; d < 6; d++ {
		col := f.Column(d)
		for id := range vs {
			if col[id] != vs[id][d] {
				t.Fatalf("flatten col %d id %d mismatch", d, id)
			}
		}
	}
	if !f.IsDeleted(7) || !f.IsDeleted(150) || f.IsDeleted(8) {
		t.Fatal("flatten delete marks wrong")
	}
}

// legacyImage reads a checked-in snapshot file of an earlier release (see
// the root package's TestImportSnapshot for what each holds).
func legacyImage(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// legacyStore is the store every segmented legacy fixture holds.
func legacyStore() *SegStore {
	s := SegmentedFromVectors(dataset.CorelLike(50, 6, 33), 16)
	for _, id := range []int{7, 20, 49} {
		s.Delete(id)
	}
	return s
}

// TestLoadSegmentedFixture reads the segmented v1 and v2 snapshot
// fixtures: shape, seal flags, rows and delete marks come back, the
// loaded store keeps appending into its active segment, and a flipped
// byte is caught by a checksum.
func TestLoadSegmentedFixture(t *testing.T) {
	for _, name := range []string{"seg-v1.bond", "seg-v2.bond"} {
		img := legacyImage(t, name)
		got, err := LoadSegmented(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := legacyStore()
		assertSameStore(t, got, want)
		if got.NumSegments() != 5 || !got.Segments()[3].Sealed() || got.Segments()[4].Sealed() {
			t.Fatalf("%s: %d segments, want 4 sealed and an active tail", name, got.NumSegments())
		}
		if !reflect.DeepEqual(got.Bases(), want.Bases()) {
			t.Fatalf("%s: bases %v, want %v", name, got.Bases(), want.Bases())
		}
		got.Append(got.Row(0))
		if got.Len() != 51 || got.Segments()[4].Len() != 1 {
			t.Fatalf("%s: append after load: len=%d", name, got.Len())
		}
		bad := append([]byte(nil), img...)
		bad[len(bad)-20] ^= 0xff
		if _, err := LoadSegmented(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: corrupted image loaded without error", name)
		}
	}
}

// TestSegStoreLoadAnyFileReadsLegacyFlat reads the seed's flat v1
// fixture through LoadAnyBytes, the import's reader: the rows load as
// one sealed segment, so codes and synopses apply, before an empty active
// one, and the delete marks survive. A segmented image goes through the
// same entry point.
func TestSegStoreLoadAnyFileReadsLegacyFlat(t *testing.T) {
	s, err := LoadAnyBytes(legacyImage(t, "flat-v1.bond"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50 || s.Live() != 47 || s.NumSegments() != 2 {
		t.Fatalf("legacy load: len=%d live=%d segs=%d", s.Len(), s.Live(), s.NumSegments())
	}
	if !s.Segments()[0].Sealed() || s.Segments()[1].Sealed() || s.Segments()[1].Len() != 0 {
		t.Fatal("legacy data should load as one sealed segment and an empty active one")
	}
	want := legacyStore()
	for id := 0; id < want.Len(); id++ {
		if s.IsDeleted(id) != want.IsDeleted(id) || !reflect.DeepEqual(s.Row(id), want.Row(id)) {
			t.Fatalf("id %d: row or delete mark lost", id)
		}
	}
	seg, err := LoadAnyBytes(legacyImage(t, "seg-v1.bond"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, seg, want)
}

func TestSegmentCodesBuiltOnceAndSealedOnly(t *testing.T) {
	_, s := segFixture(t, 120, 4, 50)
	sealed := s.Segments()[0]
	a := sealed.Codes(quant.NewUnit())
	b := sealed.Codes(quant.NewUnit())
	if a != b {
		t.Fatal("codes rebuilt on second call")
	}
	if len(a.Codes) != 4 || len(a.Codes[0]) != 50 {
		t.Fatalf("codes shape %d×%d", len(a.Codes), len(a.Codes[0]))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Codes on unsealed segment did not panic")
		}
	}()
	s.Segments()[s.NumSegments()-1].Codes(quant.NewUnit()) // the active tail
}

func TestStoreDimRangeAfterReorganize(t *testing.T) {
	st := New(2)
	st.AppendBatch([][]float64{{0.9, 0.1}, {0.2, 0.3}})
	st.Delete(0)
	st.Reorganize()
	if lo, hi := st.DimRange(0); lo != 0.2 || hi != 0.2 {
		t.Fatalf("dim0 range after reorganize [%v, %v]", lo, hi)
	}
	if lo, hi := st.ValueRange(); lo != 0.2 || hi != 0.3 {
		t.Fatalf("value range after reorganize [%v, %v]", lo, hi)
	}
	empty := New(3)
	if lo, hi := empty.DimRange(1); !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Fatalf("empty range [%v, %v]", lo, hi)
	}
}

// TestSegStoreSkipsOlderStatsBlock loads a v2 snapshot whose statistics
// block is non-empty: the rows and delete marks are intact, as in its
// twin with an empty block.
func TestSegStoreSkipsOlderStatsBlock(t *testing.T) {
	fresh, older := legacyImage(t, "seg-v2.bond"), legacyImage(t, "seg-v2-stats.bond")
	if n := binary.LittleEndian.Uint64(fresh[snapshotStatsAt:]); n != 0 {
		t.Fatalf("seg-v2.bond has a %d-byte statistics block, want 0", n)
	}
	if n := binary.LittleEndian.Uint64(older[snapshotStatsAt:]); n == 0 {
		t.Fatal("seg-v2-stats.bond has an empty statistics block")
	}
	for _, load := range []func([]byte) (*SegStore, error){
		func(b []byte) (*SegStore, error) { return LoadSegmented(bytes.NewReader(b)) },
		LoadAnyBytes,
	} {
		got, err := load(older)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStore(t, got, legacyStore())
	}
	// A block longer than the file is corruption, not a silent skip.
	torn := append([]byte(nil), fresh...)
	binary.LittleEndian.PutUint64(torn[snapshotStatsAt:], 1<<19)
	binary.LittleEndian.PutUint32(torn[len(torn)-4:], crc32.ChecksumIEEE(torn[:len(torn)-4]))
	if _, err := LoadSegmented(bytes.NewReader(torn)); err == nil {
		t.Fatal("statistics block running past the end loaded")
	}
}

func TestSegmentRowCodesCachedTranspose(t *testing.T) {
	vs := dataset.CorelLike(40, 5, 2)
	s := SegmentedFromVectors(vs, 40)
	g := s.Segments()[0]
	qz, codes := g.RowCodes(quant.NewUnit())
	if len(codes) != 40*5 {
		t.Fatalf("row codes length %d", len(codes))
	}
	cols := g.Codes(quant.NewUnit())
	for d := 0; d < 5; d++ {
		for id := 0; id < 40; id++ {
			if codes[id*5+d] != cols.Codes[d][id] {
				t.Fatalf("row code (%d,%d) != column code", id, d)
			}
		}
	}
	qz2, codes2 := g.RowCodes(quant.NewUnit())
	if &codes[0] != &codes2[0] || qz != qz2 {
		t.Fatal("RowCodes not cached")
	}
}
