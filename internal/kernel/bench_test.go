package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The micro-benchmarks pit each kernel against the scalar loop it replaced
// (the exact code that used to live in internal/core and internal/vafile).
// Run with:
//
//	go test -bench . -benchmem ./internal/kernel
//
// The Benchmark*Kernel / Benchmark*Scalar pairs are the kernel-vs-scalar
// record; CI's micro-benchmark step runs them.

const benchN = 4096

func benchSetup() (col, score []float64, cands []int, qd float64) {
	rng := rand.New(rand.NewSource(1))
	col = make([]float64, benchN)
	score = make([]float64, benchN)
	cands = make([]int, benchN)
	for i := range col {
		col[i] = rng.Float64()
		cands[i] = i
	}
	return col, score, cands, 0.5
}

func BenchmarkAccSqDistKernel(b *testing.B) {
	col, score, cands, qd := benchSetup()
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		AccSqDist(score, col, cands, qd)
	}
}

func BenchmarkAccSqDistScalar(b *testing.B) {
	col, score, cands, qd := benchSetup()
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		for ci, id := range cands {
			d := col[id] - qd
			score[ci] += d * d
		}
	}
}

func BenchmarkAccMinQKernel(b *testing.B) {
	col, score, cands, qd := benchSetup()
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		AccMinQ(score, col, cands, qd)
	}
}

func BenchmarkAccMinQScalar(b *testing.B) {
	col, score, cands, qd := benchSetup()
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		// The pre-kernel engine loop: a data-dependent branch per cell.
		for ci, id := range cands {
			v := col[id]
			if v < qd {
				score[ci] += v
			} else {
				score[ci] += qd
			}
		}
	}
}

func BenchmarkSqDistKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	v, q := make([]float64, 166), make([]float64, 166)
	for i := range v {
		v[i], q[i] = rng.Float64(), rng.Float64()
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SqDist(v, q)
	}
	_ = sink
}

func BenchmarkSqDistScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	v, q := make([]float64, 166), make([]float64, 166)
	for i := range v {
		v[i], q[i] = rng.Float64(), rng.Float64()
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		s := 0.0
		for d, x := range v {
			diff := x - q[d]
			s += diff * diff
		}
		sink += s
	}
	_ = sink
}

func BenchmarkVARowSumKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const dims = 64
	tbl := make([]float64, dims*256)
	for i := range tbl {
		tbl[i] = rng.Float64()
	}
	row := make([]uint8, dims)
	for d := range row {
		row[d] = uint8(rng.Intn(256))
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += VARowSum(tbl, row)
	}
	_ = sink
}

func BenchmarkVARowSumScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const dims = 64
	tbl := make([]float64, dims*256)
	for i := range tbl {
		tbl[i] = rng.Float64()
	}
	row := make([]uint8, dims)
	for d := range row {
		row[d] = uint8(rng.Intn(256))
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		// The pre-kernel vafile loop: two interleaved accumulators.
		var l0, l1 float64
		d := 0
		for ; d+1 < dims; d += 2 {
			l0 += tbl[d*256+int(row[d])]
			l1 += tbl[(d+1)*256+int(row[d+1])]
		}
		if d < dims {
			l0 += tbl[d*256+int(row[d])]
		}
		sink += l0 + l1
	}
	_ = sink
}

// The first-phase pair: one BOND step (8 columns of a 1 000-row segment)
// folded by the gather kernel through an identity id list, and by the run
// kernel. "L2" cycles through the 64 columns of one segment (512 KB),
// "Streamed" through 64 such segments (32 MB), so every column comes from
// the next cache level down. ns/cell is the number to compare.

const (
	runRows, runStep, runDims = 1000, 8, 64
)

func benchStep(b *testing.B, segments int, fold func(score []float64, cols [][]float64, q []float64)) {
	rng := rand.New(rand.NewSource(4))
	cols := make([][]float64, segments*runDims)
	for i := range cols {
		cols[i] = make([]float64, runRows)
		for r := range cols[i] {
			cols[i][r] = rng.Float64()
		}
	}
	q := make([]float64, runStep)
	for j := range q {
		q[j] = rng.Float64()
	}
	score := make([]float64, runRows)
	b.SetBytes(runRows * runStep * 8)
	b.ResetTimer()
	at := 0
	for i := 0; i < b.N; i++ {
		fold(score, cols[at:at+runStep], q)
		if at += runStep; at == len(cols) {
			at = 0
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runRows*runStep), "ns/cell")
}

// gatherStep adapts a gather kernel to benchStep over the identity list.
func gatherStep(acc func(score, col []float64, cands []int, qd float64)) func([]float64, [][]float64, []float64) {
	ids := make([]int, runRows)
	for i := range ids {
		ids[i] = i
	}
	return func(score []float64, cols [][]float64, q []float64) {
		for j, col := range cols {
			acc(score, col, ids, q[j])
		}
	}
}

func BenchmarkAccSqDistGatherL2(b *testing.B)       { benchStep(b, 1, gatherStep(AccSqDist)) }
func BenchmarkAccSqDistRunL2(b *testing.B)          { benchStep(b, 1, AccSqDistRun) }
func BenchmarkAccSqDistGatherStreamed(b *testing.B) { benchStep(b, 64, gatherStep(AccSqDist)) }
func BenchmarkAccSqDistRunStreamed(b *testing.B)    { benchStep(b, 64, AccSqDistRun) }
func BenchmarkAccMinQGatherL2(b *testing.B)         { benchStep(b, 1, gatherStep(AccMinQ)) }
func BenchmarkAccMinQRunL2(b *testing.B)            { benchStep(b, 1, AccMinQRun) }
func BenchmarkAccMinQGatherStreamed(b *testing.B)   { benchStep(b, 64, gatherStep(AccMinQ)) }
func BenchmarkAccMinQRunStreamed(b *testing.B)      { benchStep(b, 64, AccMinQRun) }

// The weighted and per-vector-bound variants of the same pair (L2 only):
// weights are a second per-column constant, tails a second row-indexed
// array the kernel also loads and stores.

var (
	benchW     = []float64{0.5, 1.5, 2, 0.25, 1, 3, 0.75, 1.25}
	benchTails = make([]float64, runRows)
)

func BenchmarkAccWSqDistGatherL2(b *testing.B) {
	benchStep(b, 1, gatherStep(func(score, col []float64, ids []int, qd float64) { AccWSqDist(score, col, ids, qd, 1.5) }))
}
func BenchmarkAccWSqDistRunL2(b *testing.B) {
	benchStep(b, 1, func(score []float64, cols [][]float64, q []float64) { AccWSqDistRun(score, cols, q, benchW) })
}
func BenchmarkAccWMinQGatherL2(b *testing.B) {
	benchStep(b, 1, gatherStep(func(score, col []float64, ids []int, qd float64) { AccWMinQ(score, col, ids, qd, 1.5) }))
}
func BenchmarkAccWMinQRunL2(b *testing.B) {
	benchStep(b, 1, func(score []float64, cols [][]float64, q []float64) { AccWMinQRun(score, cols, q, benchW) })
}
func BenchmarkAccSqDistTailsGatherL2(b *testing.B) {
	benchStep(b, 1, gatherStep(func(score, col []float64, ids []int, qd float64) { AccSqDistTails(score, benchTails, col, ids, qd) }))
}
func BenchmarkAccSqDistTailsRunL2(b *testing.B) {
	benchStep(b, 1, func(score []float64, cols [][]float64, q []float64) { AccSqDistTailsRun(score, benchTails, cols, q) })
}
func BenchmarkAccMinQTailsGatherL2(b *testing.B) {
	benchStep(b, 1, gatherStep(func(score, col []float64, ids []int, qd float64) { AccMinQTails(score, benchTails, col, ids, qd) }))
}
func BenchmarkAccMinQTailsRunL2(b *testing.B) {
	benchStep(b, 1, func(score []float64, cols [][]float64, q []float64) { AccMinQTailsRun(score, benchTails, cols, q) })
}

// The dense → list switch of one 1 000-row segment, by CompactLive and by
// the scalar loop it replaced (the engine's compact before the kernel), at
// 10, 50 and 90 % of the rows live (the rest hold the sentinel +Inf), with
// and without tails. ns/row is the number to compare; it includes, on both
// sides, the 8 KB copy that restores the scores before each compaction.
func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dead := math.Inf(1)
	for _, pct := range []int{1, 10, 50, 90} {
		score0 := make([]float64, runRows)
		for r := range score0 {
			score0[r] = dead
			if rng.Intn(100) < pct {
				score0[r] = rng.Float64()
			}
		}
		for _, withTails := range []bool{false, true} {
			compacts := []struct {
				name string
				f    func(cands []int, score, tails []float64) int
			}{
				{"kernel", func(cands []int, score, tails []float64) int { return CompactLive(cands, score, tails, dead) }},
				{"scalar", func(cands []int, score, tails []float64) int { return compactScalar(cands, score, tails, dead) }},
			}
			for _, c := range compacts {
				name := fmt.Sprintf("live%d/tails=%v/%s", pct, withTails, c.name)
				b.Run(name, func(b *testing.B) {
					score, cands := make([]float64, runRows), make([]int, runRows)
					var tails []float64
					if withTails {
						tails = make([]float64, runRows)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(score, score0)
						compactSink = c.f(cands, score, tails)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runRows, "ns/row")
				})
			}
		}
	}
}

var compactSink int

// compactScalar is the engine's dense → list loop before CompactLive.
func compactScalar(cands []int, score, tails []float64, dead float64) int {
	none, out := math.Float64bits(dead), 0
	if tails == nil {
		for r, s := range score {
			cands[out], score[out] = r, s
			out += b2i(math.Float64bits(s) != none)
		}
		return out
	}
	for r, s := range score {
		cands[out], score[out], tails[out] = r, s, tails[r]
		out += b2i(math.Float64bits(s) != none)
	}
	return out
}

// A dense-phase prune that ends the dense phase, on one 1 000-row segment:
// the keep kernel that marks the pruned rows dead followed by CompactLive
// ("two"), against the one-pass CompactReaching / CompactAtMost ("one"),
// with 1, 10 and 50 % of the rows kept. ns/row includes, on both sides, the
// 8 KB copy that restores the scores before each prune.
func BenchmarkCompactKept(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	score0 := make([]float64, runRows)
	for r := range score0 {
		score0[r] = rng.Float64()
	}
	for _, pct := range []int{1, 10, 50} {
		cut := float64(pct) / 100
		prunes := []struct {
			name string
			f    func(cands []int, score []float64) int
		}{
			{"reaching/two", func(cands []int, score []float64) int {
				KeepReaching(score, 0, 1-cut, math.Inf(-1))
				return CompactLive(cands, score, nil, math.Inf(-1))
			}},
			{"reaching/one", func(cands []int, score []float64) int { return CompactReaching(cands, score, 0, 0, 0, 1-cut) }},
			{"atmost/two", func(cands []int, score []float64) int {
				KeepAtMost(score, cut, math.Inf(1))
				return CompactLive(cands, score, nil, math.Inf(1))
			}},
			{"atmost/one", func(cands []int, score []float64) int { return CompactAtMost(cands, score, 0, 0, cut) }},
		}
		for _, p := range prunes {
			b.Run(fmt.Sprintf("kept%d/%s", pct, p.name), func(b *testing.B) {
				score, cands := make([]float64, runRows), make([]int, runRows)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(score, score0)
					compactSink = p.f(cands, score)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/runRows, "ns/row")
			})
		}
	}
}
