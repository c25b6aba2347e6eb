package bond

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"bond/internal/core"
)

// buildMmapFixture checkpoints a durable collection of n clustered
// vectors (plus tombstones) into a fresh directory on the real
// filesystem — mappings need real files — and returns the directory,
// the ingested vectors, and the deleted-id set.
func buildMmapFixture(t testing.TB, n, dims, segSize int, seed int64) (string, [][]float64, map[int]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]float64, 0, n)
	center := make([]float64, dims)
	for i := 0; i < n; i++ {
		if i%segSize == 0 {
			for d := range center {
				center[d] = rng.Float64()
			}
		}
		v := make([]float64, dims)
		for d := range v {
			x := center[d] + 0.08*(rng.Float64()-0.5)
			v[d] = math.Min(math.Max(x, 0), 1)
		}
		vectors = append(vectors, v)
	}

	dir := filepath.Join(t.TempDir(), "col.bond")
	col, err := OpenDurable(dir, DurableOptions{Dims: dims, SegmentSize: segSize, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddBatchDurable(vectors); err != nil {
		t.Fatal(err)
	}
	deleted := map[int]bool{}
	for i := 0; i < n/25; i++ {
		id := rng.Intn(n)
		ok, err := col.TryDeleteDurable(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			deleted[id] = true
		}
	}
	if err := col.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, vectors, deleted
}

// openMmapBacked opens the fixture memory-mapped and fails the test if
// the platform quietly fell back to the heap — the parity below must
// actually exercise kernels over mapped columns.
func openMmapBacked(t testing.TB, dir string) *Collection {
	t.Helper()
	col, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := col.StatsSnapshot(); st.MappedBytes == 0 {
		col.Close()
		t.Skip("platform cannot memory-map segment files")
	}
	return col
}

// TestMmapOracleParity pins the backing-transparency contract of the
// mmap tentpole: the same durable directory opened memory-mapped and
// heap-decoded returns bit-identical results — same ids, same float64
// score bits — on every access path, and both agree with the
// sequential-scan oracle. With AVX2 present this covers the SIMD
// kernels over mapped columns; the purego CI leg runs the identical
// test over the scalar kernels, and short segments exercise the mixed
// vector-head/scalar-tail dispatch either way.
func TestMmapOracleParity(t *testing.T) {
	dir, vectors, deleted := buildMmapFixture(t, 400, 13, 90, 51)

	mapped := openMmapBacked(t, dir)
	defer mapped.Close()
	heap, err := OpenDurable(dir, DurableOptions{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if st := heap.StatsSnapshot(); st.MappedBytes != 0 {
		t.Fatalf("DisableMmap leg reports %d mapped bytes", st.MappedBytes)
	}

	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		q := vectors[rng.Intn(len(vectors))]
		k := 1 + rng.Intn(12)
		for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
			want := oracleScan(vectors, deleted, q, k, crit.Distance())
			strategies := []Strategy{StrategyAuto, StrategyBOND, StrategyExact}
			if crit == Hq || crit == Eq {
				strategies = append(strategies, StrategyCompressed, StrategyVAFile)
			}
			for _, strat := range strategies {
				spec := QuerySpec{Query: q, K: k, Criterion: crit, Strategy: strat}
				rm, err := mapped.Query(spec)
				if err != nil {
					t.Fatalf("%v/%v mapped: %v", crit, strat, err)
				}
				rh, err := heap.Query(spec)
				if err != nil {
					t.Fatalf("%v/%v heap: %v", crit, strat, err)
				}
				label := fmt.Sprintf("%v/%v", crit, strat)
				assertMatchesOracle(t, label+"/mapped", rm.Results, want)
				assertMatchesOracle(t, label+"/heap", rh.Results, want)
				if len(rm.Results) != len(rh.Results) {
					t.Fatalf("%s: mapped %d results, heap %d", label, len(rm.Results), len(rh.Results))
				}
				for i := range rm.Results {
					m, h := rm.Results[i], rh.Results[i]
					if m.ID != h.ID || math.Float64bits(m.Score) != math.Float64bits(h.Score) {
						t.Fatalf("%s rank %d: mapped (%d, %x) vs heap (%d, %x) — backings diverge",
							label, i, m.ID, math.Float64bits(m.Score), h.ID, math.Float64bits(h.Score))
					}
				}
			}
		}
	}
}

// TestQueryAllocationBudgetMmap extends the hot-path pooling contract to
// memory-mapped durable collections: after warm-up, Query stays within
// allocBudget allocations per call on every access path when the columns
// it scans alias mapped segment files.
func TestQueryAllocationBudgetMmap(t *testing.T) {
	dir, vectors, _ := buildMmapFixture(t, 1200, 24, 300, 53)
	col := openMmapBacked(t, dir)
	defer col.Close()

	type pathCase struct {
		strategy Strategy
		crit     Criterion
	}
	var cases []pathCase
	for _, strat := range []Strategy{StrategyAuto, StrategyBOND, StrategyCompressed, StrategyVAFile, StrategyExact} {
		cases = append(cases, pathCase{strat, Hq}, pathCase{strat, Eq})
	}

	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v_%v", tc.crit, tc.strategy), func(t *testing.T) {
			spec := QuerySpec{Query: vectors[7], K: 10, Criterion: tc.crit, Strategy: tc.strategy}
			for i := 0; i < 8; i++ {
				if _, err := col.Query(spec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := col.Query(spec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > allocBudget {
				t.Errorf("Query %v/%v over mapped segments: %.1f allocs/op, budget %d",
					tc.crit, tc.strategy, allocs, allocBudget)
			}
		})
	}
}

// Every place a segment's synopsis reaches the engine — the memoized planner
// list, and the snapshot views AsFeature searches after the lock is gone —
// carries the store's own min/max, heap-backed or memory-mapped, and so
// bounds a query to the same bits. The snapshot's copy
// of the active segment brings its own synopsis and stays as it was when a
// later add widens the live one.
func TestSynopsisViewsHeapAndMmap(t *testing.T) {
	const dims, segSize = 12, 64
	dir, vectors, _ := buildMmapFixture(t, 5*segSize, dims, segSize, 77)
	mapped := openMmapBacked(t, dir)
	defer mapped.Close()
	heap := NewCollectionSegmented(vectors, segSize)
	far := make([]float64, dims)
	for d := range far {
		far[d] = 1 - vectors[0][d]
	}
	opts := core.Options{Criterion: core.Eq}
	all := make([]int32, dims)
	for d := range all {
		all[d] = int32(d)
	}
	bound := func(v *core.SegmentView, q []float64) float64 { return core.SegBound(v, q, &opts, all, 0) }
	for name, col := range map[string]*Collection{"heap": heap, "mmap": mapped} {
		if _, err := col.AddDurable(vectors[0]); err != nil { // a one-point active segment
			t.Fatal(err)
		}
		col.mu.RLock()
		segs, live, snap := col.store.Segments(), col.planView().segs, col.snapshotViews()
		col.mu.RUnlock()
		activeBefore := bound(&snap[len(snap)-1], far)
		if _, err := col.AddDurable(far); err != nil {
			t.Fatal(err)
		}
		for i, g := range segs {
			for d := 0; d < dims; d++ {
				lo, hi := g.DimRange(d)
				if v := live[i].View; v.Lo[d] != lo || v.Hi[d] != hi {
					t.Fatalf("%s segment %d dim %d: planner view [%v, %v], store [%v, %v]", name, i, d, v.Lo[d], v.Hi[d], lo, hi)
				}
				if g.Sealed() && (snap[i].Lo[d] != lo || snap[i].Hi[d] != hi) {
					t.Fatalf("%s segment %d dim %d: snapshot view [%v, %v], store [%v, %v]", name, i, d, snap[i].Lo[d], snap[i].Hi[d], lo, hi)
				}
			}
			a, b := bound(&live[i].View, vectors[3]), bound(&snap[i], vectors[3])
			if g.Sealed() && math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s segment %d: planner bound %v, snapshot bound %v", name, i, a, b)
			}
		}
		last := len(snap) - 1
		if b := bound(&live[last].View, far); b != 0 {
			t.Errorf("%s: the active segment's live view bounds the vector just added at %v, want 0", name, b)
		}
		if b := bound(&snap[last], far); b != activeBefore || b == 0 {
			t.Errorf("%s: the snapshot's active segment moved with a later add: bound %v, was %v", name, b, activeBefore)
		}
	}
}
