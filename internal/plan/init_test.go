package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/vstore"
)

// eagerPlan is p re-planned the way this package planned before the cursor
// took the bounded segments lazily: every segment's bound complete up
// front, then one stable sort — the parallel group, then the segments
// without a synopsis, then the bounded ones best bound first, each class
// in segment order. The steps cover every segment, so Execute walks them
// with the same skip test and never consults the (empty) heap.
func eagerPlan(p *Plan) *Plan {
	type key struct {
		class int // 0 parallel, 1 no synopsis, 2 bounded
		bound float64
		seg   int
		ok    bool
	}
	var keys []key
	for i := range p.segs {
		v := &p.segs[i].View
		n := v.Src.Len()
		if n == 0 {
			continue
		}
		k := key{class: 1, seg: i}
		if v.Lo != nil && (len(p.eff) == 0 || !math.IsInf(v.Lo[p.eff[0]], 1)) {
			k.class, k.ok = 2, true
			k.bound = core.SegBound(v, p.Spec.Query, &p.Opts, p.eff, 0)
		}
		if p.parallel(n) {
			k.class = 0
		}
		keys = append(keys, k)
	}
	dist := p.Opts.Criterion.Distance()
	slices.SortStableFunc(keys, func(a, b key) int {
		switch {
		case a.class != b.class:
			return a.class - b.class
		case a.class != 2 || a.bound == b.bound:
			return 0
		case (a.bound < b.bound) == dist:
			return -1
		}
		return 1
	})
	p.Steps, p.heap = p.Steps[:0], p.heap[:0]
	for _, k := range keys {
		p.Steps = append(p.Steps, p.newStep(k.seg, k.bound, k.ok))
	}
	return p
}

// lazyFixture builds a random segment list for the order-equivalence
// property: few distinct coarse boxes, so many bounds tie exactly; segment
// sizes from empty to the Auto fan-out threshold; and synopses of
// every kind — the box the rows were drawn in (looser than the data, shared
// by several segments), the store's own min/max, none, one that observed
// nothing (+Inf, −Inf everywhere), and a box with one such dimension.
func lazyFixture(rng *rand.Rand, dims int) []Segment {
	boxes := make([][]float64, 1+rng.Intn(4))
	for b := range boxes {
		boxes[b] = make([]float64, dims)
		for d := range boxes[b] {
			boxes[b][d] = float64(rng.Intn(4)) / 4
		}
	}
	nSeg := 1 + rng.Intn(30)
	segs := make([]Segment, nSeg)
	base := 0
	for i := range segs {
		n := []int{0, 1, 3, 17, 40}[rng.Intn(5)]
		if rng.Intn(40) == 0 {
			n = parallelMinSegment
		}
		box := boxes[rng.Intn(len(boxes))]
		st := vstore.New(dims)
		for r := 0; r < n; r++ {
			v := make([]float64, dims)
			for d := range v {
				v[d] = box[d] + rng.Float64()/4
			}
			st.Append(v)
		}
		view := core.SegmentView{Src: st, Base: base}
		lo, hi := slices.Clone(box), make([]float64, dims)
		for d := range hi {
			hi[d] = box[d] + 0.25
		}
		switch rng.Intn(6) {
		case 0: // no synopsis
		case 1:
			for d := range lo {
				lo[d], hi[d] = math.Inf(1), math.Inf(-1)
			}
			view.Lo, view.Hi = lo, hi
		case 2:
			d := rng.Intn(dims)
			lo[d], hi[d] = math.Inf(1), math.Inf(-1)
			view.Lo, view.Hi = lo, hi
		case 3:
			view.Lo, view.Hi = st.DimRanges()
		default:
			view.Lo, view.Hi = lo, hi
		}
		segs[i] = Segment{View: view, Sealed: true}
		base += n
	}
	return segs
}

// lazySpec draws one query spec over the fixture: the criterion, and at
// random weights with zeros, a Dims subspace, a tolerance, an exclusion
// bitmap, a fan-out hint, a forced strategy and an expired deadline.
func lazySpec(rng *rand.Rand, crit core.Criterion, dims, slots int) Spec {
	spec := Spec{Criterion: crit, K: 1 + rng.Intn(6), Query: make([]float64, dims)}
	for d := range spec.Query {
		spec.Query[d] = rng.Float64()
	}
	if crit != core.Hh && rng.Intn(3) == 0 {
		spec.Weights = make([]float64, dims)
		for d := range spec.Weights {
			spec.Weights[d] = float64(rng.Intn(3)) / 2
		}
	}
	if rng.Intn(3) == 0 {
		spec.Dims = rng.Perm(dims)[:1+rng.Intn(dims)]
	}
	if rng.Intn(4) == 0 {
		spec.Tolerance = 0.05
	}
	if rng.Intn(4) == 0 && slots > 0 {
		spec.Exclude = bitmap.New(slots)
		for id := 0; id < slots; id++ {
			if rng.Intn(5) == 0 {
				spec.Exclude.Set(id)
			}
		}
	}
	spec.Strategy = []Strategy{Auto, ForceBOND, ForceExact}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		spec.Parallel = 2 + 2*rng.Intn(2)
	}
	if rng.Intn(10) == 0 {
		spec.Deadline = time.Now().Add(-time.Second)
	}
	return spec
}

// The cursor's lazy best-first selection is the eager bound-all-and-sort
// plan, executed: on every spec, the pooled plan and the one New makes
// return the eager plan's results bit for bit and its whole Stats
// (segments skipped included); New's plan lists the eager steps — segment
// order, bounds, per-step κ, skips, costs — and prints its EXPLAIN text,
// before Execute and after; the pooled plan's steps are the eager ones up
// to where κ dismissed the rest; and a QueryBatch of the specs answers the
// same.
func TestLazyPlanMatchesEagerProperty(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	pool := new(Pool)
	sameResult := func(label string, got, want Result, gotErr, wantErr error) {
		t.Helper()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, eager %v", label, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result\n%+v\neager\n%+v", label, got, want)
		}
	}
	for trial := 0; trial < 150; trial++ {
		dims := 2 + rng.Intn(10)
		segs := lazyFixture(rng, dims)
		slots := 0
		for _, s := range segs {
			slots += s.View.Src.Len()
		}
		var specs []Spec
		var wants []Result
		for _, crit := range []core.Criterion{core.Eq, core.Ev, core.Hq, core.Hh} {
			spec := lazySpec(rng, crit, dims, slots)
			label := fmt.Sprintf("trial %d %v/%v parallel=%d", trial, crit, spec.Strategy, spec.Parallel)
			fresh, err := New(segs, spec, nil)
			if err != nil {
				continue // a fixture with no rows, or data outside Eq's range
			}
			ref, _ := New(segs, spec, nil)
			if got, want := fresh.Explain(), eagerPlan(ref).Explain(); got != want {
				t.Fatalf("%s: EXPLAIN before Execute\n%s\neager\n%s", label, got, want)
			}
			want, wantErr := Execute(ref)

			got, err := Execute(fresh)
			sameResult(label+" (explained first)", got, want, err, wantErr)
			lazy, _ := New(segs, spec, nil)
			got, err = Execute(lazy)
			sameResult(label, got, want, err, wantErr)
			if !slices.Equal(lazy.Steps, ref.Steps) {
				t.Fatalf("%s: steps\n%+v\neager\n%+v", label, lazy.Steps, ref.Steps)
			}
			if got, want := lazy.Explain(), ref.Explain(); got != want {
				t.Fatalf("%s: EXPLAIN\n%s\neager\n%s", label, got, want)
			}

			pooled, err := NewReusable(segs, spec, pool)
			if err != nil {
				t.Fatal(err)
			}
			got, err = Execute(pooled)
			sameResult(label+" (pooled)", got, want, err, wantErr)
			n := len(pooled.Steps)
			if n > len(ref.Steps) || !slices.Equal(pooled.Steps, ref.Steps[:n]) {
				t.Fatalf("%s: pooled steps\n%+v\neager\n%+v", label, pooled.Steps, ref.Steps)
			}
			for _, st := range ref.Steps[n:] {
				if st.Executed || !st.Skipped && !ref.Truncated && wantErr == nil {
					t.Fatalf("%s: pooled plan stopped at step %d of\n%+v", label, n, ref.Steps)
				}
			}
			pooled.Release()
			if wantErr == nil {
				specs, wants = append(specs, spec), append(wants, want)
			}
		}
		if len(specs) == 0 {
			continue
		}
		results, failed, err := ExecuteBatch(segs, specs, pool)
		if err != nil {
			t.Fatalf("trial %d: batch failed at %d: %v", trial, failed, err)
		}
		for i := range specs {
			sameResult(fmt.Sprintf("trial %d batch %d", trial, i), results[i], wants[i], nil, nil)
		}
	}
}

// TestSynopsisCellsRead pins the work the lazy selection saves: on
// cluster-contiguous Eq stores the far segments are dismissed from their
// first few dimensions, so a query reads at most a quarter of the synopsis
// cells at 96 segments and an eighth at 1 536; on a uniform store nothing is
// dismissed and under Hq no prefix proves anything, so every cell is read,
// exactly once.
func TestSynopsisCellsRead(t *testing.T) {
	const dims, segLen = 64, 16
	clustered96, clustered1536 := clusterContiguous(96, segLen, dims, 5), clusterContiguous(1536, segLen, dims, 5)
	for _, tc := range []struct {
		name  string
		store *vstore.SegStore
		crit  core.Criterion
		limit float64 // of segments × dims; 1 means exactly all
	}{
		{"clustered-96-Eq", clustered96, core.Eq, 1.0 / 4},
		{"clustered-1536-Eq", clustered1536, core.Eq, 1.0 / 8},
		{"uniform-Eq", uniformStore(16*64, 64, dims, 3), core.Eq, 1},
		{"clustered-96-Hq", clustered96, core.Hq, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			segs := segmentsOf(tc.store)
			all := 0
			for _, s := range segs {
				if s.View.Src.Len() > 0 {
					all += dims
				}
			}
			pool := new(Pool)
			for i := 0; i < 8; i++ {
				q := tc.store.Row(i * tc.store.Len() / 8)
				p, err := NewReusable(segs, Spec{Query: q, K: 10, Criterion: tc.crit, Strategy: ForceBOND}, pool)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Execute(p); err != nil {
					t.Fatal(err)
				}
				cells := p.cells
				p.Release()
				if tc.limit == 1 && cells != all || float64(cells) > tc.limit*float64(all) {
					t.Fatalf("query %d read %d of %d synopsis cells, limit %.3g of them", i, cells, all, tc.limit)
				}
			}
		})
	}
}

// BenchmarkPlanQuery times what a query pays the planner and the executor:
// NewReusable, the cursor run to its end, Release — over cluster-contiguous
// segments of 16 vectors, where a query's k = 10 neighbours share its own
// segment and the synopses dismiss every other one, as on skip_clustered.
// Queries rotate over the clusters. finish's two copies for the caller (the
// result list and the step log) are left out, so allocs/op must read 0.
// ns/cell is per synopsis cell (segments × dims).
func BenchmarkPlanQuery(b *testing.B) {
	const dims, segLen, nQueries = 64, 16, 64
	weights := make([]float64, dims)
	for d := range weights {
		weights[d] = float64(d % 4) // a quarter of them zero
	}
	for _, nSeg := range []int{96, 1536} {
		s := clusterContiguous(nSeg, segLen, dims, 5)
		segs := segmentsOf(s)
		queries := make([][]float64, nQueries)
		for i := range queries {
			queries[i] = s.Row(segLen * (i * nSeg / nQueries))
		}
		for _, spec := range []Spec{
			{Criterion: core.Eq, Strategy: ForceBOND},
			{Criterion: core.Hq, Strategy: ForceBOND, Weights: weights},
		} {
			spec.K = 10
			name := fmt.Sprintf("segs=%d/%v", nSeg, spec.Criterion)
			if spec.Weights != nil {
				name += "-weighted"
			}
			b.Run(name, func(b *testing.B) {
				pool := new(Pool)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					spec.Query = queries[i%nQueries]
					p, err := NewReusable(segs, spec, pool)
					if err != nil {
						b.Fatal(err)
					}
					ln := pool.acquireLane()
					for p.begin(ln); !p.cur.done; {
						p.step(ln)
					}
					pool.releaseLane(ln)
					p.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nSeg*dims), "ns/cell")
			})
		}
	}
}
