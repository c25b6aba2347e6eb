package vstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// appendRowsOf builds the segmented store that appending rows in batches
// of size batch leaves behind.
func appendRowsOf(rows [][]float64, segSize, batch int) *SegStore {
	s := NewSegmented(len(rows[0]), segSize)
	for at := 0; at < len(rows); at += batch {
		s.AppendBatch(rows[at:min(at+batch, len(rows))])
	}
	return s
}

func randRows(n, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randVec(rng, dims)
	}
	return rows
}

// TestAppendBatchLinear pins the cost of filling a segment batch by batch:
// the active segment's columns grow geometrically up to the segment size,
// so a 1 000-row segment filled by 64-row batches allocates less than
// twice its columns and totals (re-sizing every column to fit each batch
// exactly allocated ≈ 9 times), and each sealed segment keeps no spare
// capacity.
func TestAppendBatchLinear(t *testing.T) {
	const rows, dims, segSize = 1000, 64, 1000
	data := randRows(rows, dims, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := appendRowsOf(data, segSize, 64)
	runtime.ReadMemStats(&after)
	segBytes := float64(rows * (dims + 1) * 8) // the columns and the totals
	if got := float64(after.TotalAlloc-before.TotalAlloc) / segBytes; got > 2 {
		t.Errorf("filling a segment by 64-row batches allocated %.2f× its columns, want ≤ 2×", got)
	} else {
		t.Logf("filling a segment by 64-row batches allocated %.2f× its columns", got)
	}
	// A full segment, a partial one with spare capacity sealed by
	// SealActive, and one filled by single-row appends.
	s.AppendBatch(data[:300])
	s.AppendBatch(data[300:364])
	s.SealActive()
	for _, v := range data {
		s.Append(v)
	}
	for i, g := range s.Segments() {
		if !g.Sealed() {
			continue
		}
		for d := 0; d < dims; d++ {
			if col := g.Column(d); cap(col) != len(col) {
				t.Fatalf("sealed segment %d column %d: cap %d, len %d", i, d, cap(col), len(col))
			}
		}
		if tot := g.Totals(); cap(tot) != len(tot) {
			t.Fatalf("sealed segment %d totals: cap %d, len %d", i, cap(tot), len(tot))
		}
	}
}

// TestAppendBatchSizesAgree: how rows are batched changes nothing a
// reader sees — columns, totals, value range and per-dimension synopses
// are bit for bit those of a one-row-at-a-time fill.
func TestAppendBatchSizesAgree(t *testing.T) {
	const dims, segSize = 64, 1000
	data := randRows(2345, dims, 2)
	data[17][3] = math.Copysign(0, -1) // -0 and +0 compare equal: the first one seen stays
	want := appendRowsOf(data, segSize, 1)
	for _, batch := range []int{7, 64, 1000, len(data)} {
		got := appendRowsOf(data, segSize, batch)
		label := fmt.Sprintf("batches of %d", batch)
		if got.NumSegments() != want.NumSegments() || got.Len() != want.Len() {
			t.Fatalf("%s: %d segments, %d rows; want %d, %d", label,
				got.NumSegments(), got.Len(), want.NumSegments(), want.Len())
		}
		for i, g := range got.Segments() {
			w := want.Segments()[i]
			assertSameColumns(t, fmt.Sprintf("%s, segment %d", label, i), g.Store, w.Store)
			if g.Sealed() != w.Sealed() {
				t.Fatalf("%s, segment %d: sealed %v, want %v", label, i, g.Sealed(), w.Sealed())
			}
			glo, ghi := g.ValueRange()
			wlo, whi := w.ValueRange()
			lo, hi := g.DimRanges()
			wl, wh := w.DimRanges()
			if !sameBits(append([]float64{glo, ghi}, append(lo, hi...)...),
				append([]float64{wlo, whi}, append(wl, wh...)...)) {
				t.Fatalf("%s, segment %d: synopsis differs", label, i)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAppendBatchBadVectorChangesNothing: a batch with a vector of the
// wrong dimensionality panics before any column, total or delete mark
// moves, on a flat store and across a segment boundary alike.
func TestAppendBatchBadVectorChangesNothing(t *testing.T) {
	const dims = 4
	good := randRows(10, dims, 3)
	bad := append(append([][]float64{}, good[:5]...), make([]float64, dims+1))
	bad = append(bad, good[5:]...)
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		f()
	}

	flat := FromVectors(good[:3])
	mustPanic("Store.AppendBatch", func() { flat.AppendBatch(bad) })
	if flat.Len() != 3 || len(flat.Totals()) != 3 || flat.DeletedView().Len() != 3 {
		t.Fatalf("flat store after a refused batch: len %d, totals %d, delete bitmap %d; want 3",
			flat.Len(), len(flat.Totals()), flat.DeletedView().Len())
	}
	for d := 0; d < dims; d++ {
		if n := len(flat.Column(d)); n != 3 {
			t.Fatalf("flat store after a refused batch: column %d has %d rows, want 3", d, n)
		}
	}

	seg := NewSegmented(dims, 4) // the bad vector lies past the first seal
	seg.AppendBatch(good[:2])
	mustPanic("SegStore.AppendBatch", func() { seg.AppendBatch(bad) })
	if seg.Len() != 2 || seg.NumSegments() != 1 || seg.Segments()[0].DeletedView().Len() != 2 {
		t.Fatalf("segmented store after a refused batch: len %d, %d segments", seg.Len(), seg.NumSegments())
	}
}

// BenchmarkAppendBatch fills 1 000-row, 64-dimension segments with 64-row
// batches, as an HTTP ingest does: ns/row and B/op of the column append.
func BenchmarkAppendBatch(b *testing.B) {
	const dims, segSize, batch = 64, 1000, 64
	data := randRows(segSize, dims, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendRowsOf(data, segSize, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segSize), "ns/row")
}
