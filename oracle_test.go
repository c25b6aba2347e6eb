package bond

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bond/internal/bitmap"
	"bond/internal/dataset"
	"bond/internal/topk"
)

// The answer contract, stated once for every test of this package: a query
// answers with the ids and score bits of a scan that sums each live,
// unexcluded row's terms — (v − q)² or min(v, q), times w when weighted —
// over the effective dimensions (Dims as listed, or every dimension, less
// the zero weights) left to right in that order, and ranks best first,
// ties to the smaller id. It holds for every access path (BOND and its
// one-pass route, the exact scan, the compressed and VA-File refines),
// every backing (heap and memory-mapped), every kernel set (AVX2, portable
// and purego) and every layout of the same rows, in a batch as alone.
// MultiSearch's aggregated scores fall outside it: package multifeature
// sums each feature in its own processing order.

// scanAnswer is the contract's reference: the scan above over rows (by
// id), skipping the ids deleted marks (nil: none) and spec.Exclude's.
func scanAnswer(rows [][]float64, deleted []bool, spec QuerySpec) []topk.Result {
	dist := spec.Criterion.Distance()
	h := topk.NewLargest(spec.K)
	if dist {
		h = topk.NewSmallest(spec.K)
	}
	dims := spec.Dims
	if len(dims) == 0 && len(rows) > 0 {
		for d := range rows[0] {
			dims = append(dims, d)
		}
	}
	ex := spec.Exclude
	for id, v := range rows {
		if id < len(deleted) && deleted[id] || ex != nil && id < ex.Len() && ex.Get(id) {
			continue
		}
		s := 0.0
		for _, d := range dims {
			w := 1.0 // w·t rounds to t exactly, so one expression serves both
			if len(spec.Weights) > 0 {
				if w = spec.Weights[d]; w == 0 {
					continue
				}
			}
			if diff := v[d] - spec.Query[d]; dist {
				s += w * diff * diff
			} else {
				s += w * min(v[d], spec.Query[d])
			}
		}
		h.Push(id, s)
	}
	return h.Results()
}

// assertSameAnswer fails t unless got lists want's ids in want's order,
// each with want's score, compared with ==. It reports with Errorf, so a
// goroutine other than the test's may call it, and returns whether the
// answers agree.
func assertSameAnswer(t testing.TB, label string, got, want []topk.Result) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d (%v vs %v)", label, len(got), len(want), got, want)
		return false
	}
	for i, w := range want {
		if got[i].ID != w.ID {
			t.Errorf("%s rank %d: id %d, want %d", label, i, got[i].ID, w.ID)
			return false
		}
		if got[i].Score != w.Score {
			t.Errorf("%s rank %d (id %d): score %v, want %v", label, i, w.ID, got[i].Score, w.Score)
			return false
		}
	}
	return true
}

// assertMultiSearchAnswer fails t unless got lists want's ids in want's
// order, each scored within 1e-9 of want's: MultiSearch's aggregated
// scores fall outside the contract (see the top of this file), its ids do
// not.
func assertMultiSearchAnswer(t testing.TB, label string, got, want []topk.Result) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d (%v vs %v)", label, len(got), len(want), got, want)
		return false
	}
	for i, w := range want {
		if got[i].ID != w.ID || math.Abs(got[i].Score-w.Score) > 1e-9 {
			t.Errorf("%s rank %d: id %d score %v, want id %d score %v", label, i, got[i].ID, got[i].Score, w.ID, w.Score)
			return false
		}
	}
	return true
}

// assertAnswers runs spec through c under every strategy that takes it —
// auto, BOND and the exact scan always, the compressed and VA-File
// filters for full-space, unweighted Hq and Eq — and holds each answer to
// the scan of rows less deleted.
func assertAnswers(t testing.TB, label string, c *Collection, rows [][]float64, deleted []bool, spec QuerySpec) bool {
	t.Helper()
	want := scanAnswer(rows, deleted, spec)
	strategies := []Strategy{StrategyAuto, StrategyBOND, StrategyExact}
	if (spec.Criterion == Hq || spec.Criterion == Eq) && len(spec.Weights) == 0 && len(spec.Dims) == 0 {
		strategies = append(strategies, StrategyCompressed, StrategyVAFile)
	}
	for _, strat := range strategies {
		spec.Strategy = strat
		res, err := c.Query(spec)
		if err != nil {
			t.Errorf("%s %v/%v: %v", label, spec.Criterion, strat, err)
			return false
		}
		if !assertSameAnswer(t, fmt.Sprintf("%s %v/%v", label, spec.Criterion, strat), res.Results, want) {
			return false
		}
	}
	return true
}

// layoutRows generates n rows of dims coordinates of a layout, in blocks
// of segSize: "uniform" rows, "corel" (Corel-like skewed histograms),
// "clustered" (every block a box of width 0.03 around its own uniform
// centre, clamped to the unit cube: the skip_clustered workload's
// generator) or "mixed" (clustered and uniform blocks alternating).
func layoutRows(rng *rand.Rand, layout string, n, dims, segSize int) [][]float64 {
	if layout == "corel" {
		return dataset.CorelLike(n, dims, rng.Int63())
	}
	out := make([][]float64, n)
	center := make([]float64, dims)
	for i := range out {
		block := i / segSize
		if i%segSize == 0 {
			for d := range center {
				center[d] = rng.Float64()
			}
		}
		tight := layout == "clustered" || layout == "mixed" && block%2 == 0
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
			if tight {
				v[d] = min(max(center[d]+0.03*(v[d]-0.5), 0), 1)
			}
		}
		out[i] = v
	}
	return out
}

// oracleCollection builds a collection of a layout and returns it with
// what the reference scans: its rows by id and the deleted marks. It has a
// few sealed segments (the last of them partial) and an active segment of
// 1–10 rows added after the build, drawn from the same layout, with one
// row in twenty deleted across both. In the uniform and Corel-like
// layouts row 0 is copied into every segment, the active one included,
// and one row in ten is a copy of another, so scores tie across segments,
// where a bound or a κ that is off by an ulp picks the wrong id (query
// row 0 to meet them at the top); the other two keep their tight segment
// boxes.
func oracleCollection(t *testing.T, rng *rand.Rand, layout string) (*Collection, [][]float64, []bool) {
	t.Helper()
	dims := 6 + rng.Intn(27)
	segSize := 24 + rng.Intn(80)
	built := segSize*(2+rng.Intn(5)) + 1 + rng.Intn(segSize-1)
	n := built + 1 + rng.Intn(10)
	rows, deleted := layoutRows(rng, layout, n, dims, segSize), make([]bool, n)
	if layout == "uniform" || layout == "corel" {
		for i := 0; i < n/10; i++ {
			rows[rng.Intn(n)] = rows[rng.Intn(n)]
		}
		for base := segSize; base < built; base += segSize {
			rows[base+rng.Intn(min(segSize, built-base))] = rows[0]
		}
		rows[built+rng.Intn(n-built)] = rows[0]
	}
	col := NewCollectionSegmented(rows[:built], segSize)
	for _, v := range rows[built:] { // the build seals every row; these stay active
		if _, err := col.AddDurable(v); err != nil {
			t.Fatal(err)
		}
	}
	if segs := col.store.Segments(); segs[len(segs)-1].Sealed() || segs[len(segs)-1].Len() != n-built {
		t.Fatalf("%s: the active segment does not hold the %d added rows", layout, n-built)
	}
	for _, id := range rng.Perm(n)[:n/20] {
		deleteIDs(t, col, id)
		deleted[id] = true
	}
	return col, rows, deleted
}

// randomExclusion excludes about one row in twenty-five of c's first n.
func randomExclusion(rng *rand.Rand, c *Collection, n int) *bitmap.Bitmap {
	excl := c.NewExclusion()
	for i := 0; i < n/25; i++ {
		excl.Set(rng.Intn(n))
	}
	return excl
}

// oracleSpecs draws the queries the oracle asks of rows: Hq, Hh, Eq and
// Ev, each plain, weighted (one weight zero; Hh takes no weights) and over
// a Dims subset in random order, for row (one of rows) and a uniform
// point, with k small and k above the row count, every other one under
// exclude, in a random dimension order and pruning step.
func oracleSpecs(rng *rand.Rand, rows [][]float64, row []float64, exclude *bitmap.Bitmap) []QuerySpec {
	dims := len(rows[0])
	weights := make([]float64, dims)
	for d := range weights {
		weights[d] = 0.25 + 2*rng.Float64()
	}
	weights[rng.Intn(dims)] = 0
	subspace := rng.Perm(dims)[:1+rng.Intn(dims)]
	queries := [][]float64{row, dataset.Uniform(1, dims, rng.Int63())[0]}
	orders := []Order{OrderQueryDesc, OrderQueryAsc, OrderRandom, OrderNatural}

	var specs []QuerySpec
	for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
		for _, variant := range []string{"plain", "weighted", "dims"} {
			if crit == Hh && variant == "weighted" {
				continue
			}
			for qi, q := range queries {
				for _, k := range []int{1 + rng.Intn(10), len(rows) + 3} {
					spec := QuerySpec{Query: q, K: k, Criterion: crit, Order: orders[rng.Intn(4)], Step: rng.Intn(6)}
					switch variant {
					case "weighted":
						spec.Weights = weights
					case "dims":
						spec.Dims = subspace
					}
					if (qi+len(specs))%2 == 1 {
						spec.Exclude = exclude
					}
					specs = append(specs, spec)
				}
			}
		}
	}
	return specs
}

// TestPlannerStrategiesMatchOracle is the differential oracle: on every
// layout, with deletes, an active segment and exclusions, every query
// oracleSpecs draws answers through every plan the planner can emit — each
// strategy that takes it forced in turn, and auto — and through QueryBatch
// under forced BOND and auto, as scanAnswer does; a single-feature Hq
// MultiSearch finds the scan's ids.
func TestPlannerStrategiesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, layout := range []string{"uniform", "corel", "clustered", "mixed"} {
		for trial := 0; trial < 2; trial++ {
			col, rows, deleted := oracleCollection(t, rng, layout)
			specs := oracleSpecs(rng, rows, rows[0], randomExclusion(rng, col, len(rows)))
			label := fmt.Sprintf("%s trial %d", layout, trial)
			for _, spec := range specs {
				if !assertAnswers(t, label, col, rows, deleted, spec) {
					t.FailNow()
				}
			}
			// A single weight-1 histogram feature aggregates to the plain
			// intersection: MultiSearch over the collection's snapshot
			// finds the Hq scan's ids.
			for _, k := range []int{1 + rng.Intn(10), len(rows) + 3} {
				multi, err := MultiSearch([]Feature{col.AsFeature(rows[0], 1)}, MultiOptions{K: k})
				if err != nil {
					t.Fatalf("%s MultiSearch: %v", label, err)
				}
				want := scanAnswer(rows, deleted, QuerySpec{Query: rows[0], K: k, Criterion: Hq})
				if !assertMultiSearchAnswer(t, fmt.Sprintf("%s MultiSearch k=%d", label, k), multi.Results, want) {
					t.FailNow()
				}
			}
			for _, strat := range []Strategy{StrategyBOND, StrategyAuto} {
				for i := range specs {
					specs[i].Strategy = strat
				}
				batch, err := col.QueryBatch(specs)
				if err != nil {
					t.Fatalf("%s batch: %v", label, err)
				}
				for i, spec := range specs {
					if !assertSameAnswer(t, fmt.Sprintf("%s batch %d %v/%v", label, i, spec.Criterion, strat),
						batch[i].Results, scanAnswer(rows, deleted, spec)) {
						t.FailNow()
					}
				}
			}
		}
	}
}
