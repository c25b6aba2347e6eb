package bond

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sections 7 and 8), one benchmark per artefact, at a scaled-down
// configuration (use cmd/bondbench -full for paper scale). Each benchmark
// reports the figure's or table's headline quantity as a custom metric so
// `go test -bench` output doubles as a compact reproduction record.

import (
	"math/rand"
	"strconv"
	"testing"

	"bond/internal/baseline/mil"
	"bond/internal/bench"
	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/multifeature"
	"bond/internal/quant"
	"bond/internal/seqscan"
	"bond/internal/streammerge"
	"bond/internal/vstore"
)

// benchCfg is the shared scaled-down configuration. Small enough for a
// 1-CPU CI box, large enough that every paper shape is visible.
func benchCfg() bench.Config {
	return bench.Config{N: 2000, Dims: 64, Queries: 5, K: 10, Step: 8, Seed: 42}
}

func lastY(f bench.Figure, label string) float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y[len(s.Y)-1]
		}
	}
	return -1
}

// BenchmarkFig2DatasetStats regenerates Figure 2 (dataset statistics).
func BenchmarkFig2DatasetStats(b *testing.B) {
	var topMass float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig2DatasetStats(benchCfg())
		topMass = f.Series[1].Y[0]
	}
	b.ReportMetric(topMass, "top-bin-mass")
}

// BenchmarkFig4PruningHqHh regenerates Figure 4 (pruning of Hq and Hh).
func BenchmarkFig4PruningHqHh(b *testing.B) {
	var hq, hh float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig4PruningHqHh(benchCfg())
		hq = lastY(f, "Hq avg")
		hh = lastY(f, "Hh avg")
	}
	b.ReportMetric(hq, "Hq-final-cands")
	b.ReportMetric(hh, "Hh-final-cands")
}

// BenchmarkFig5PruningEqEv regenerates Figure 5 (pruning of Eq and Ev).
func BenchmarkFig5PruningEqEv(b *testing.B) {
	var eq, ev float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig5PruningEqEv(benchCfg())
		eq = lastY(f, "Eq avg")
		ev = lastY(f, "Ev avg")
	}
	b.ReportMetric(eq, "Eq-final-cands")
	b.ReportMetric(ev, "Ev-final-cands")
}

// BenchmarkFig6EffectOfK regenerates Figure 6 (effect of k).
func BenchmarkFig6EffectOfK(b *testing.B) {
	var k1, k1000 float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig6EffectOfK(benchCfg())
		k1 = lastY(f, "k=1")
		k1000 = lastY(f, "k=1000")
	}
	b.ReportMetric(k1, "k1-final-cands")
	b.ReportMetric(k1000, "k1000-final-cands")
}

// BenchmarkFig7Orderings regenerates Figure 7 (dimension orderings).
func BenchmarkFig7Orderings(b *testing.B) {
	var desc, asc float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig7Orderings(benchCfg())
		desc = lastY(f, "desc")
		asc = lastY(f, "asc")
	}
	b.ReportMetric(desc, "desc-final-cands")
	b.ReportMetric(asc, "asc-final-cands")
}

// BenchmarkFig8Dimensionality regenerates Figure 8 (dimensionality).
func BenchmarkFig8Dimensionality(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig8Dimensionality(benchCfg())
		frac = f.Series[len(f.Series)-1].Y[len(f.Series[0].Y)-1]
	}
	b.ReportMetric(frac, "highdim-final-frac")
}

// BenchmarkFig9Compression regenerates Figure 9 (compressed fragments).
func BenchmarkFig9Compression(b *testing.B) {
	var exact, comp float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig9Compression(benchCfg())
		exact = lastY(f, "exact")
		comp = lastY(f, "compressed")
	}
	b.ReportMetric(exact, "exact-final-cands")
	b.ReportMetric(comp, "compressed-final-cands")
}

// BenchmarkFig10DataSkew regenerates Figure 10 (data skew).
func BenchmarkFig10DataSkew(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	var t0, t2 float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig10DataSkew(cfg)
		t0 = lastY(f, "theta=0.0")
		t2 = lastY(f, "theta=2.0")
	}
	b.ReportMetric(t0, "theta0-final-cands")
	b.ReportMetric(t2, "theta2-final-cands")
}

// BenchmarkFig11WeightSkew regenerates Figure 11 (weight skew).
func BenchmarkFig11WeightSkew(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	var w0, w3 float64
	for i := 0; i < b.N; i++ {
		f := bench.Fig11WeightSkew(cfg)
		w0 = lastY(f, "wskew=0.0")
		w3 = lastY(f, "wskew=3.0")
	}
	b.ReportMetric(w0, "wskew0-final-cands")
	b.ReportMetric(w3, "wskew3-final-cands")
}

// BenchmarkTable3ResponseTime regenerates Table 3 (BOND vs sequential
// scan response times). The per-method timings are inside the table; the
// benchmark reports the headline speedup of Hq over SSH.
func BenchmarkTable3ResponseTime(b *testing.B) {
	cfg := benchCfg()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := bench.Table3ResponseTimes(cfg)
		var hq, ssh float64
		for _, row := range t.Rows {
			switch row[0] {
			case "Hq":
				hq = parseF(row[3])
			case "SSH":
				ssh = parseF(row[3])
			}
		}
		if hq > 0 {
			speedup = ssh / hq
		}
	}
	b.ReportMetric(speedup, "Hq-speedup-x")
}

// BenchmarkTable4VAFile regenerates Table 4 (compressed BOND vs VA-File).
func BenchmarkTable4VAFile(b *testing.B) {
	cfg := benchCfg()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := bench.Table4Approximations(cfg)
		var bond, va float64
		for _, row := range t.Rows {
			switch row[0] {
			case "filter Hq^c":
				bond = parseF(row[3])
			case "filter SSVA":
				va = parseF(row[3])
			}
		}
		if bond > 0 {
			speedup = va / bond
		}
	}
	b.ReportMetric(speedup, "filter-speedup-x")
}

// BenchmarkX1MultiFeature regenerates the Section 8.2 comparison of
// synchronized multi-feature search against stream merging.
func BenchmarkX1MultiFeature(b *testing.B) {
	cfg := benchCfg()
	cfg.N = 1000
	cfg.Queries = 3
	var avgSpeedup, minSpeedup float64
	for i := 0; i < b.N; i++ {
		t := bench.MultiFeatureComparison(cfg)
		for _, row := range t.Rows {
			switch row[0] {
			case "avg":
				avgSpeedup = parseF(row[3])
			case "min":
				minSpeedup = parseF(row[3])
			}
		}
	}
	b.ReportMetric(avgSpeedup, "avg-speedup-pct")
	b.ReportMetric(minSpeedup, "min-speedup-pct")
}

// BenchmarkAblationStepM sweeps the pruning granularity (Section 5.2).
func BenchmarkAblationStepM(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		bench.AblationStepM(cfg)
	}
}

// BenchmarkAblationBitmapSwitch sweeps the MIL bitmap switch (Section 6.1).
func BenchmarkAblationBitmapSwitch(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		bench.AblationBitmapSwitch(cfg)
	}
}

// BenchmarkAblationAbandonScan reproduces the footnote-6 comparison.
func BenchmarkAblationAbandonScan(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		bench.AblationAbandonScan(cfg)
	}
}

// --- Micro-benchmarks of the search primitives themselves. ---

type microFixture struct {
	vectors [][]float64
	store   *vstore.Store
	query   []float64
}

var micro *microFixture

func microSetup() *microFixture {
	if micro == nil {
		vs := dataset.CorelLike(10000, 64, 7)
		micro = &microFixture{vectors: vs, store: vstore.FromVectors(vs), query: vs[17]}
	}
	return micro
}

func BenchmarkSearchHq(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(f.store, f.query, core.Options{K: 10, Criterion: core.Hq}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHh(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(f.store, f.query, core.Options{K: 10, Criterion: core.Hh}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchEv(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(f.store, f.query, core.Options{K: 10, Criterion: core.Ev}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqScanSSH(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqscan.SearchHistogram(f.vectors, f.query, 10)
	}
}

func BenchmarkSeqScanSSE(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqscan.SearchEuclidean(f.vectors, f.query, 10)
	}
}

func BenchmarkSearchMILEngine(b *testing.B) {
	f := microSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mil.SearchMIL(f.store, f.query, mil.MILOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiFeatureSync(b *testing.B) {
	v1 := dataset.CorelLike(2000, 32, 3)
	v2 := dataset.CorelLike(2000, 64, 4)
	features := []multifeature.Feature{
		{Store: vstore.FromVectors(v1), Query: v1[5], Weight: 1},
		{Store: vstore.FromVectors(v2), Query: v2[5], Weight: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multifeature.Search(features, multifeature.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamMerge(b *testing.B) {
	v1 := dataset.CorelLike(2000, 32, 3)
	v2 := dataset.CorelLike(2000, 64, 4)
	features := []multifeature.Feature{
		{Store: vstore.FromVectors(v1), Query: v1[5], Weight: 1},
		{Store: vstore.FromVectors(v2), Query: v2[5], Weight: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streammerge.Search(features, 10, multifeature.WeightedAvg); err != nil {
			b.Fatal(err)
		}
	}
}

func parseF(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkX2Usefulness regenerates the Section 9 usefulness validation.
func BenchmarkX2Usefulness(b *testing.B) {
	cfg := benchCfg()
	var spread float64
	for i := 0; i < b.N; i++ {
		t := bench.UsefulnessValidation(cfg)
		first := parseF(t.Rows[0][2])
		last := parseF(t.Rows[len(t.Rows)-1][2])
		spread = first - last
	}
	b.ReportMetric(spread, "scan-pct-spread")
}

// BenchmarkX3Clustering regenerates the Section 9 clustering experiment.
func BenchmarkX3Clustering(b *testing.B) {
	cfg := benchCfg()
	cfg.N = 1000
	var saved float64
	for i := 0; i < b.N; i++ {
		t := bench.ClusteringComparison(cfg)
		pruned := parseF(t.Rows[0][2])
		naive := parseF(t.Rows[1][2])
		if naive > 0 {
			saved = 100 * (1 - pruned/naive)
		}
	}
	b.ReportMetric(saved, "values-saved-pct")
}

// BenchmarkAblationAdaptiveStep compares fixed against adaptive m.
func BenchmarkAblationAdaptiveStep(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 3
	for i := 0; i < b.N; i++ {
		bench.AblationAdaptiveStep(cfg)
	}
}

// BenchmarkSearchCompressedFilter measures the compressed filter phase.
func BenchmarkSearchCompressedFilter(b *testing.B) {
	f := microSetup()
	qs := f.store.Quantize(quant.NewUnit())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FilterCompressed(f.store, qs, f.query, core.Options{K: 10, Criterion: core.Hq}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Segmented-store benchmarks -----------------------------------------

// clusterBlocks generates cluster-contiguous data: block b of perBlock
// vectors sits around its own random centre (the ingest-by-locality
// pattern segment synopses exploit).
func clusterBlocks(blocks, perBlock, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, 0, blocks*perBlock)
	for bl := 0; bl < blocks; bl++ {
		ctr := make([]float64, dims)
		for d := range ctr {
			ctr[d] = rng.Float64()
		}
		for i := 0; i < perBlock; i++ {
			v := make([]float64, dims)
			for d := range v {
				x := ctr[d] + rng.NormFloat64()*0.02
				if x < 0 {
					x = 0
				}
				if x > 1 {
					x = 1
				}
				v[d] = x
			}
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkSegmentSkipping compares BOND over a segmented collection whose
// boundaries align with data locality (segment synopses skip cold
// segments) against the same data in one flat segment (every search scans
// the full candidate set). Reported metrics: coefficients read per query
// and segments skipped.
func BenchmarkSegmentSkipping(b *testing.B) {
	const blocks, perBlock, dims, k = 20, 500, 64, 10
	vs := clusterBlocks(blocks, perBlock, dims, 99)
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = vs[(i*blocks/len(queries))*perBlock+3]
	}
	for _, cfg := range []struct {
		name    string
		segSize int
	}{
		{"segmented-skip", perBlock},
		{"flat-fullscan", len(vs) + 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			col := NewCollectionSegmented(vs, cfg.segSize)
			var scanned, skipped, searched int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				res, err := col.Query(QuerySpec{Query: q, K: k, Criterion: Ev, Strategy: StrategyBOND})
				if err != nil {
					b.Fatal(err)
				}
				scanned += res.Stats.ValuesScanned
				skipped += int64(res.Stats.SegmentsSkipped)
				searched += int64(res.Stats.SegmentsSearched)
			}
			n := float64(b.N)
			b.ReportMetric(float64(scanned)/n, "values/query")
			b.ReportMetric(float64(skipped)/n, "segs-skipped/query")
			b.ReportMetric(float64(searched)/n, "segs-searched/query")
		})
	}
}

// BenchmarkQueryScanUniform is the scan_uniform workload's shape in
// process: 16 000 uniform vectors of 64 dims in sealed segments of 1 000,
// queried with Eq under forced BOND for the k = 10 nearest of vectors
// sampled from the data. Uniform data is where BOND prunes least and the
// dimension order matters most (Section 5.1). Reported: cells read per
// query, beside ns/op per query.
func BenchmarkQueryScanUniform(b *testing.B) {
	vs := dataset.Uniform(16000, 64, 1)
	queries, _ := dataset.SampleQueries(vs, 64, 2)
	col := NewCollectionSegmented(vs, 1000)
	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := col.Query(QuerySpec{Query: queries[i%len(queries)], K: 10, Criterion: Eq, Strategy: StrategyBOND})
		if err != nil {
			b.Fatal(err)
		}
		cells += res.Stats.ValuesScanned
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/query")
}

// BenchmarkQueryCorelHq is the mixed_rw and sharded_fanout workloads'
// query shape in process, without their writer or shards: 16 000
// Corel-like histograms of 32 dims in sealed segments of 1 000, queried
// with Hq under forced BOND for the k = 10 best of vectors sampled from the
// data. Skewed histograms are where the carried κ prunes hardest: after the
// first segment it removes nearly every row at the first pruning attempt.
// Reported: cells read and pruning attempts per query, beside ns/op per
// query.
func BenchmarkQueryCorelHq(b *testing.B) {
	vs := dataset.CorelLike(16000, 32, 1)
	queries, _ := dataset.SampleQueries(vs, 64, 2)
	col := NewCollectionSegmented(vs, 1000)
	var cells, attempts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := col.Query(QuerySpec{Query: queries[i%len(queries)], K: 10, Criterion: Hq, Strategy: StrategyBOND})
		if err != nil {
			b.Fatal(err)
		}
		cells += res.Stats.ValuesScanned
		attempts += int64(len(res.Stats.Steps))
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/query")
	b.ReportMetric(float64(attempts)/float64(b.N), "prune-attempts/query")
}

// BenchmarkQuerySkipClustered is the skip_clustered workload's shape in
// process: 24 000 vectors of 64 dims in cluster-contiguous blocks of 250,
// each block a box of width 0.03 around its own uniform centre, in sealed
// segments of 250, queried with Eq under forced BOND for the k = 10
// nearest of 512 vectors sampled from the data. Synopsis skipping leaves
// about one segment per query, and that segment's box is too tight for any
// pruning attempt to remove a row, so the executor reads it in one pass
// (core.OnePass). Reported: cells read and pruning attempts per query,
// beside ns/op per query.
func BenchmarkQuerySkipClustered(b *testing.B) {
	vs := layoutRows(rand.New(rand.NewSource(1)), "clustered", 24000, 64, 250)
	queries, _ := dataset.SampleQueries(vs, 512, 2)
	col := NewCollectionSegmented(vs, 250)
	var cells, attempts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := col.Query(QuerySpec{Query: queries[i%len(queries)], K: 10, Criterion: Eq, Strategy: StrategyBOND})
		if err != nil {
			b.Fatal(err)
		}
		cells += res.Stats.ValuesScanned
		attempts += int64(len(res.Stats.Steps))
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/query")
	b.ReportMetric(float64(attempts)/float64(b.N), "prune-attempts/query")
}
