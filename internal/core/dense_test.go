package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/plan"
	"bond/internal/vstore"
)

// denseAndList runs spec twice over seg, with the dense first phase and
// forced onto the candidate list from the first column, and demands what
// the phase must not change: ids and score bits, the step log (candidate
// counts, pruned counts, skipped attempts, per segment), and every other
// statistic but ValuesScanned — which counts cells read, so the dense run,
// reading the dead rows of its steps too, may only report more.
func denseAndList(t *testing.T, label string, segs []plan.Segment, spec plan.Spec) (dense, list plan.Result) {
	t.Helper()
	defer core.SetDenseDisabled(false)
	run := func(off bool) (plan.Result, *plan.Plan) {
		core.SetDenseDisabled(off)
		p, err := plan.New(segs, nil, spec, nil)
		if err != nil {
			t.Fatal(label, err)
		}
		res, err := plan.Execute(p)
		if err != nil {
			t.Fatal(label, err)
		}
		return res, p
	}
	dense, dp := run(false)
	list, lp := run(true)
	sameBits(t, label, dense.Results, list.Results)
	if !reflect.DeepEqual(dense.Stats.Steps, list.Stats.Steps) {
		t.Fatalf("%s: step logs differ:\ndense %+v\nlist  %+v", label, dense.Stats.Steps, list.Stats.Steps)
	}
	ds, ls := dense.Stats, list.Stats
	if ds.ValuesScanned < ls.ValuesScanned {
		t.Fatalf("%s: dense read %d cells, list %d", label, ds.ValuesScanned, ls.ValuesScanned)
	}
	ds.Steps, ls.Steps, ds.ValuesScanned, ls.ValuesScanned = nil, nil, 0, 0
	if !reflect.DeepEqual(ds, ls) {
		t.Fatalf("%s: stats differ: dense %+v, list %+v", label, ds, ls)
	}
	for i := range dp.Steps {
		d, l := dp.Steps[i], lp.Steps[i]
		d.ActualCost, l.ActualCost = 0, 0
		if d != l {
			t.Fatalf("%s: plan step %d differs: dense %+v, list %+v", label, i, dp.Steps[i], lp.Steps[i])
		}
	}
	return dense, list
}

// TestDensePhaseMatchesListProperty is the bit-identity contract of the
// dense first phase, on the carried-κ corpus: every criterion, plain,
// weighted and subspace, with deletes, an exclusion bitmap,
// K above the segment size, cross-segment duplicates that tie at rank k,
// and segments of every size — with the carry (which empties segments
// mid-phase) and without it, and through the exact scan.
func TestDensePhaseMatchesListProperty(t *testing.T) {
	defer core.SetCarryDisabled(false)
	var denseCells, listCells int64
	for seed := 1; seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := newCarryFixture(rng)
		for _, spec := range f.carrySpecs(rng) {
			label := specLabel(seed, spec)
			core.SetCarryDisabled(false)
			d, l := denseAndList(t, label, segmentsOf(f.seg), spec)
			denseCells += d.Stats.ValuesScanned
			listCells += l.Stats.ValuesScanned
			core.SetCarryDisabled(true)
			denseAndList(t, label+" (carry off)", segmentsOf(f.seg), spec)
			core.SetCarryDisabled(false)
			if len(spec.Weights) == 0 && len(spec.Dims) == 0 {
				spec.Strategy = plan.ForceExact
				denseAndList(t, label+" (exact)", segmentsOf(f.seg), spec)
			}
		}
	}
	if denseCells == listCells {
		t.Fatal("no run ever left the list path: the dense phase was not exercised")
	}
	t.Logf("cells read: %d with the dense phase, %d on the list alone", denseCells, listCells)
}

// A carried κ that empties far segments at their first prune — while every
// row is still live, so in the dense phase — and a segment that starts
// below the live fraction and never enters it.
func TestDensePhaseEmptiedAndSparseSegments(t *testing.T) {
	const blocks, perBlock, dims = 6, 80, 16
	vs := clusterContiguous(blocks, perBlock, dims, 23)
	seg := vstore.SegmentedFromVectors(vs, perBlock)
	// Segment 2 keeps a third of its rows: list from the first column.
	for i := 0; i < perBlock; i++ {
		if i%3 != 0 {
			seg.Delete(2*perBlock + i)
		}
	}
	// Without synopses no segment is skipped: the far ones must be searched,
	// under the κ the query's own cluster has set.
	views := viewsOf(seg)
	for i := range views {
		views[i].Lo, views[i].Hi = nil, nil
	}
	segs := plan.WrapViews(views)
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		spec := plan.Spec{Query: vs[5], K: 4, Criterion: crit, Strategy: plan.ForceBOND}
		dense, list := denseAndList(t, crit.String(), segs, spec)
		emptied := false
		for _, st := range dense.Stats.Steps {
			if st.Segment != 0 && st.Candidates == 0 && st.Pruned >= perBlock/3 {
				emptied = true
			}
		}
		if !emptied {
			t.Fatalf("%v: no segment was emptied in one prune: %+v", crit, dense.Stats.Steps)
		}

		// Only the sparse segment: both runs are the list path, cell for cell.
		only := spec
		only.Exclude = bitmap.New(len(vs))
		for id := range vs {
			if id/perBlock != 2 {
				only.Exclude.Set(id)
			}
		}
		dense, list = denseAndList(t, crit.String()+" sparse", segs, only)
		if dense.Stats.ValuesScanned != list.Stats.ValuesScanned {
			t.Fatalf("%v: a segment below the live fraction read %d cells, list %d",
				crit, dense.Stats.ValuesScanned, list.Stats.ValuesScanned)
		}
	}
}

// An exact scan is the engine run as one step, so it answers weighted and
// subspace queries like BOND does, to the bit: both report the
// storage-order sum.
func TestExactScanHonoursWeightsAndDims(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := newCarryFixture(rng)
	for _, spec := range f.carrySpecs(rng) {
		if len(spec.Weights) == 0 && len(spec.Dims) == 0 {
			continue
		}
		label := specLabel(41, spec)
		want, _, err := planned(f.seg, spec)
		if err != nil {
			t.Fatal(label, err)
		}
		spec.Strategy = plan.ForceExact
		got, _, err := planned(f.seg, spec)
		if err != nil {
			t.Fatal(label, err)
		}
		sameBits(t, label+" exact vs bond", got.Results, want.Results)
	}
}
