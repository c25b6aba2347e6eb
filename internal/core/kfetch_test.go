package core_test

import (
	"testing"

	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/vstore"
)

// kfetchCapMax bounds the kfetch buffer a Scratch keeps: the kernel path's
// 128-slot selection, with room to spare, and a quarter of the 1 000-row
// segment below. A buffer that held a score per row would fail it.
const kfetchCapMax = 256

// TestKfetchScratchBounded pins the kfetch's memory: after dense Eq and Hq
// searches of a 1 000-row segment, whose every pruning step and final
// ranking take κ over all 1 000 scores, the buffer the Scratch keeps for
// it holds O(k) values, not O(rows).
func TestKfetchScratchBounded(t *testing.T) {
	const rows, dims, k = 1000, 32, 10
	corel := dataset.CorelLike(rows, dims, 61)
	dataset.NormalizeAll(corel)
	for _, tc := range []struct {
		crit core.Criterion
		vs   [][]float64
	}{{core.Eq, dataset.Uniform(rows, dims, 61)}, {core.Hq, corel}} {
		seg := vstore.SegmentedFromVectors(tc.vs, rows)
		views := viewsOf(seg)
		var sc core.Scratch
		for qi := 0; qi < 8; qi++ {
			q := tc.vs[qi*97]
			opts := core.Options{K: k, Criterion: tc.crit}
			if err := core.ValidateSegments(len(views), func(i int) *core.SegmentView { return &views[i] }, q, &opts); err != nil {
				t.Fatal(err)
			}
			var qs core.Query
			qs.Init(q, opts)
			res, _ := core.SearchOneScratch(views[0].Src, &qs, nil, 0, false, &sc)
			if len(res.Results) != k || res.Stats.ValuesScanned < rows*int64(opts.Step) {
				t.Fatalf("%v query %d: %d results after %d cells: not a dense search", tc.crit, qi, len(res.Results), res.Stats.ValuesScanned)
			}
		}
		if c := core.KfetchCap(&sc); c < k || c > kfetchCapMax {
			t.Fatalf("%v: kfetch buffer capacity %d after 1 000-row searches, want k = %d to %d", tc.crit, c, k, kfetchCapMax)
		}
	}
}
