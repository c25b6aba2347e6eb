package bond

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/plan"
)

// paperQuery answers spec on c as Query does, but planned without the
// collection's moments: in the paper's order, by decreasing q, or by
// decreasing w·max(q, 1−q)² for a weighted query.
func paperQuery(c *Collection, spec QuerySpec) (QueryResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, err := plan.New(c.planView().segs, nil, spec, nil)
	if err != nil {
		return QueryResult{}, err
	}
	return plan.Execute(p)
}

// orderCells runs every query through col (whose rows are rows) under
// forced BOND with k 10, once in the default order and once in the
// paper's, and returns the cells each read in total. Both must answer as
// the scan does, whatever order BOND read the columns in.
func orderCells(t *testing.T, col *Collection, rows, queries [][]float64, crit Criterion, w []float64) (def, paper int64) {
	t.Helper()
	for i, q := range queries {
		spec := QuerySpec{Query: q, K: 10, Criterion: crit, Weights: w, Strategy: StrategyBOND}
		got, err := col.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := paperQuery(col, spec)
		if err != nil {
			t.Fatal(err)
		}
		scan := scanAnswer(rows, nil, spec)
		label := fmt.Sprintf("%v query %d", crit, i)
		if !assertSameAnswer(t, label+" default order", got.Results, scan) ||
			!assertSameAnswer(t, label+" paper order", want.Results, scan) {
			t.FailNow()
		}
		def += got.Stats.ValuesScanned
		paper += want.Stats.ValuesScanned
	}
	return def, paper
}

// The default order of a distance query — by expected contribution,
// w·((μ − q)² + σ²) over the collection's moments — reads far fewer cells
// than the paper's decreasing-q order on uniform data, where that order
// is no better than storage order, no more on Zipfian histograms, where
// the paper's order is already near-ideal, and under weights it beats the
// max-contribution key the paper's order used. Counts, not times: the
// plans are deterministic, so are the bounds.
func TestExpectedContributionOrderWork(t *testing.T) {
	check := func(name string, def, paper int64, bound float64) {
		t.Helper()
		ratio := float64(def) / float64(paper)
		t.Logf("%s: %d cells in the default order, %d in the paper's (%.3f×)", name, def, paper, ratio)
		if ratio > bound {
			t.Errorf("%s: the default order reads %.3f× the paper order's cells, want ≤ %.2f×", name, ratio, bound)
		}
	}

	uniform := dataset.Uniform(8000, 64, 3)
	uq, _ := dataset.SampleQueries(uniform, 16, 4)
	def, paper := orderCells(t, NewCollectionSegmented(uniform, 1000), uniform, uq, Eq, nil)
	check("uniform Eq", def, paper, 0.75)

	corel := dataset.CorelLike(8000, 32, 5)
	cq, _ := dataset.SampleQueries(corel, 16, 6)
	col := NewCollectionSegmented(corel, 1000)
	for _, crit := range []Criterion{Eq, Ev} {
		def, paper := orderCells(t, col, corel, cq, crit, nil)
		check("CorelLike "+crit.String(), def, paper, 1.01)
	}
	def, paper = orderCells(t, col, corel, cq, Eq, dataset.WeightsZipf(32, 0, 7))
	check("CorelLike weighted Eq", def, paper, 0.5)
}

// momentsNow returns the moments a distance query on c orders by,
// computing them if no query has yet.
func momentsNow(c *Collection) *core.Moments {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.orderMoments(c.planView(), QuerySpec{Criterion: Eq})
}

// freshMoments sums c's sealed segments in one pass, the way an open does.
func freshMoments(c *Collection) *core.Moments {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sums core.MomentSums
	for _, g := range c.store.Segments() {
		if g.Sealed() {
			sums.Add(g)
		}
	}
	return sums.Moments()
}

func sameMoments(a, b *core.Moments) bool {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return len(a.Mean) > 0 && slices.Equal(bits(a.Mean), bits(b.Mean)) && slices.Equal(bits(a.Var), bits(b.Var))
}

// The moments are a function of the sealed segments alone, and so are the
// plans that use them: the same bits before Close and after OpenDurable,
// mmap'd or on the heap, on a follower that caught up, after compaction and
// recluster as in a fresh pass, and folded seal by seal as in one pass. A
// collection that has answered only histogram queries has summed nothing.
func TestOrderMomentsDeterministic(t *testing.T) {
	const dims, segSize = 16, 100
	rng := rand.New(rand.NewSource(21))
	vecs := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = randVector(rng, dims)
		}
		return out
	}
	queries := vecs(6)
	run := func(c *Collection, crit Criterion) []QueryResult {
		t.Helper()
		var out []QueryResult
		for _, q := range queries {
			res, err := c.Query(QuerySpec{Query: q, K: 5, Criterion: crit, Strategy: StrategyBOND})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	computed := func(c *Collection) bool {
		v := c.planCache.Load()
		return c.sums.Sources > 0 || v != nil && v.moments.Load() != nil
	}
	open := func(dir string, opts DurableOptions) *Collection {
		t.Helper()
		opts.Dims, opts.SegmentSize, opts.Fsync = dims, segSize, FsyncNever
		c, err := OpenDurable(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	leader := open(dir+"/leader", DurableOptions{})
	defer func() { leader.Close() }()

	if _, err := leader.AddBatchDurable(vecs(250)); err != nil {
		t.Fatal(err)
	}
	run(leader, Hq)
	if computed(leader) {
		t.Fatal("histogram queries computed moments")
	}
	run(leader, Eq) // moments over two sealed segments
	if _, err := leader.AddBatchDurable(vecs(530)); err != nil {
		t.Fatal(err)
	}
	if leader.sums.Sources != 2 {
		t.Fatalf("a sealing append left sums over %d segments, want the 2 summed before it", leader.sums.Sources)
	}
	if !sameMoments(momentsNow(leader), freshMoments(leader)) {
		t.Fatal("moments folded across seals differ from one pass")
	}
	want, wantMoments := run(leader, Eq), momentsNow(leader)

	follower := open(dir+"/follower", DurableOptions{})
	defer func() { follower.Close() }()
	if err := tailReplica(leader, follower); err != nil {
		t.Fatal(err)
	}
	if got := run(follower, Eq); !reflect.DeepEqual(got, want) || !sameMoments(momentsNow(follower), wantMoments) {
		t.Fatal("follower: plans or moments differ from the leader's")
	}

	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		if err := leader.Close(); err != nil {
			t.Fatal(err)
		}
		leader = open(dir+"/leader", DurableOptions{DisableMmap: noMmap})
		if got := run(leader, Eq); !reflect.DeepEqual(got, want) || !sameMoments(momentsNow(leader), wantMoments) {
			t.Fatalf("reopened (no mmap %v): plans or moments differ", noMmap)
		}
	}

	for id := 0; id < 700; id += 3 {
		if _, err := leader.TryDeleteDurable(id); err != nil {
			t.Fatal(err)
		}
	}
	maintain := map[string]func() error{
		"compaction": func() error { _, err := leader.CompactRatioDurable(0); return err },
		"recluster":  func() error { _, err := leader.ReclusterDurable(0, 1); return err },
	}
	for _, name := range []string{"compaction", "recluster"} {
		run(leader, Eq)
		if err := maintain[name](); err != nil {
			t.Fatal(err)
		}
		got := run(leader, Eq)
		if !sameMoments(momentsNow(leader), freshMoments(leader)) {
			t.Fatalf("after %s: moments differ from a fresh pass", name)
		}
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := leader.Close(); err != nil {
			t.Fatal(err)
		}
		leader = open(dir+"/leader", DurableOptions{})
		if !reflect.DeepEqual(run(leader, Eq), got) {
			t.Fatalf("after %s: plans differ from the reopened collection's", name)
		}
	}
}
