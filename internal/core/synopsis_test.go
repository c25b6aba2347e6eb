package core_test

import (
	"math"
	"testing"

	"bond/internal/core"
	"bond/internal/vstore"
)

func TestSynopsisSpreadShuffledVsContiguous(t *testing.T) {
	// Two layouts over the same coefficients: interleaved (every segment
	// spans the whole extent) and grouped (each segment covers one band).
	shuffled := vstore.SegmentedFromVectors([][]float64{
		{0.0, 1.0}, {0.9, 0.1}, {0.05, 0.95}, {0.95, 0.05},
	}, 2)
	grouped := vstore.SegmentedFromVectors([][]float64{
		{0.0, 1.0}, {0.05, 0.95}, {0.9, 0.1}, {0.95, 0.05},
	}, 2)

	loose, ok := core.SynopsisSpread(viewsOf(shuffled))
	if !ok {
		t.Fatal("shuffled layout unmeasurable")
	}
	tight, ok := core.SynopsisSpread(viewsOf(grouped))
	if !ok {
		t.Fatal("grouped layout unmeasurable")
	}
	if loose < 0.9 {
		t.Errorf("interleaved spread = %v, want ≈1", loose)
	}
	if tight > 0.1 {
		t.Errorf("grouped spread = %v, want ≈0", tight)
	}
	if tight >= loose {
		t.Errorf("grouped spread %v not below interleaved %v", tight, loose)
	}
}

func TestSynopsisSpreadEdgeCases(t *testing.T) {
	if _, ok := core.SynopsisSpread(nil); ok {
		t.Error("no views should be unmeasurable")
	}
	// Views without synopses are unmeasurable.
	s := vstore.SegmentedFromVectors([][]float64{{1, 2}, {3, 4}}, 1)
	views := viewsOf(s)
	for i := range views {
		views[i].Lo, views[i].Hi = nil, nil
	}
	if _, ok := core.SynopsisSpread(views); ok {
		t.Error("synopsis-free views should be unmeasurable")
	}
	// A single measurable view spans its own extent: spread 1.
	one := vstore.SegmentedFromVectors([][]float64{{0, 1}, {1, 0}}, 4)
	got, ok := core.SynopsisSpread(viewsOf(one)[:1])
	if !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("single view spread = %v ok=%v, want 1", got, ok)
	}
	// Identical vectors: every global extent degenerate, nothing measured.
	flat := vstore.SegmentedFromVectors([][]float64{{0.5, 0.5}, {0.5, 0.5}}, 1)
	if _, ok := core.SynopsisSpread(viewsOf(flat)); ok {
		t.Error("fully degenerate extents should be unmeasurable")
	}
}
