package vstore

import (
	"math"
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
