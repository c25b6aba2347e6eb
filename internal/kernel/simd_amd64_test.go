//go:build amd64 && !purego

package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// The gather kernels promise bit-identical results whichever implementation
// runs — that promise is what keeps every access path byte-equal to the
// sequential-scan oracle. These tests run each kernel twice, once with the
// AVX2 path forced on and once forced off, and compare the raw float bits.
// The dense kernels get a relative tolerance instead (documented few-ulp
// reduction-order difference).

func withAVX2(t *testing.T, on bool, f func()) {
	t.Helper()
	saved := hasAVX2
	hasAVX2 = on
	defer func() { hasAVX2 = saved }()
	f()
}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("CPU has no AVX2; nothing to compare")
	}
}

// testColumn mixes ordinary values with the edge cases the min trick has
// to get right: exact ties with qd, and zeros of both signs.
func testColumn(rng *rand.Rand, n int, qd float64) []float64 {
	col := make([]float64, n)
	for i := range col {
		switch rng.Intn(8) {
		case 0:
			col[i] = qd // exact tie
		case 1:
			col[i] = 0.0
		case 2:
			col[i] = math.Copysign(0, -1) // -0
		default:
			col[i] = rng.NormFloat64()
		}
	}
	return col
}

func testCands(rng *rand.Rand, n, rows int) []int {
	cands := make([]int, n)
	for i := range cands {
		cands[i] = rng.Intn(rows)
	}
	return cands
}

// kernel lengths worth probing: below simdMin, at it, odd tails, and a
// large batch.
var equivLens = []int{0, 1, 3, 7, 8, 9, 12, 31, 64, 257, 1000}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestAccKernelsBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(7))
	const rows = 512
	qds := []float64{0.25, 0.0, math.Copysign(0, -1), -1.5}
	for _, n := range equivLens {
		for _, qd := range qds {
			col := testColumn(rng, rows, qd)
			cands := testCands(rng, n, rows)
			w := 0.37

			type run struct {
				name string
				f    func(score, tails []float64)
			}
			runs := []run{
				{"AccSqDist", func(s, _ []float64) { AccSqDist(s, col, cands, qd) }},
				{"AccSqDistTails", func(s, tl []float64) { AccSqDistTails(s, tl, col, cands, qd) }},
				{"AccWSqDist", func(s, _ []float64) { AccWSqDist(s, col, cands, qd, w) }},
				{"AccWSqDistTails", func(s, tl []float64) { AccWSqDistTails(s, tl, col, cands, qd, w) }},
				{"AccMinQ", func(s, _ []float64) { AccMinQ(s, col, cands, qd) }},
				{"AccMinQTails", func(s, tl []float64) { AccMinQTails(s, tl, col, cands, qd) }},
				{"AccWMinQ", func(s, _ []float64) { AccWMinQ(s, col, cands, qd, w) }},
			}
			for _, r := range runs {
				// Non-zero starting scores so the accumulate (not just the
				// per-slot term) is compared.
				base := make([]float64, n)
				baseT := make([]float64, n)
				for i := range base {
					base[i] = rng.NormFloat64()
					baseT[i] = rng.NormFloat64()
				}
				sA := append([]float64(nil), base...)
				tA := append([]float64(nil), baseT...)
				sG := append([]float64(nil), base...)
				tG := append([]float64(nil), baseT...)
				withAVX2(t, true, func() { r.f(sA, tA) })
				withAVX2(t, false, func() { r.f(sG, tG) })
				if i, ok := bitsEqual(sA, sG); !ok {
					t.Fatalf("%s n=%d qd=%v: score[%d] avx2=%x go=%x", r.name, n, qd, i,
						math.Float64bits(sA[i]), math.Float64bits(sG[i]))
				}
				if i, ok := bitsEqual(tA, tG); !ok {
					t.Fatalf("%s n=%d qd=%v: tails[%d] avx2=%x go=%x", r.name, n, qd, i,
						math.Float64bits(tA[i]), math.Float64bits(tG[i]))
				}
			}
		}
	}
}

func TestAccCodeBoundsBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(11))
	const rows = 512
	codes := make([]uint8, rows)
	for i := range codes {
		codes[i] = uint8(rng.Intn(256))
	}
	var tLo, tHi [256]float64
	for i := range tLo {
		tLo[i] = rng.NormFloat64()
		tHi[i] = tLo[i] + rng.Float64()
	}
	for _, n := range equivLens {
		cands := testCands(rng, n, rows)
		loA := make([]float64, n)
		hiA := make([]float64, n)
		loG := make([]float64, n)
		hiG := make([]float64, n)
		withAVX2(t, true, func() { AccCodeBounds(loA, hiA, codes, cands, &tLo, &tHi) })
		withAVX2(t, false, func() { AccCodeBounds(loG, hiG, codes, cands, &tLo, &tHi) })
		if i, ok := bitsEqual(loA, loG); !ok {
			t.Fatalf("AccCodeBounds n=%d: sLo[%d] differs", n, i)
		}
		if i, ok := bitsEqual(hiA, hiG); !ok {
			t.Fatalf("AccCodeBounds n=%d: sHi[%d] differs", n, i)
		}
	}
}

func TestVARowSumBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(13))
	for _, dims := range equivLens {
		tbl := make([]float64, dims*256)
		for i := range tbl {
			tbl[i] = rng.NormFloat64()
		}
		row := make([]uint8, dims)
		for i := range row {
			row[i] = uint8(rng.Intn(256))
		}
		var a, g float64
		withAVX2(t, true, func() { a = VARowSum(tbl, row) })
		withAVX2(t, false, func() { g = VARowSum(tbl, row) })
		if math.Float64bits(a) != math.Float64bits(g) {
			t.Fatalf("VARowSum dims=%d: avx2=%v go=%v", dims, a, g)
		}
	}
}

func TestDenseKernelsWithinTolerance(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(17))
	const relTol = 1e-12
	for _, n := range equivLens {
		v := make([]float64, n)
		q := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			q[i] = rng.NormFloat64()
		}
		var a, g float64
		withAVX2(t, true, func() { a = SqDist(v, q) })
		withAVX2(t, false, func() { g = SqDist(v, q) })
		if math.Abs(a-g) > relTol*math.Max(math.Abs(g), 1) {
			t.Fatalf("SqDist n=%d: avx2=%v go=%v", n, a, g)
		}
	}
}

// Zeros of mixed sign on both sides: a single vminpd would return the
// second operand on a (−0, +0) tie, which depends on operand order; the
// two-min/or sequence must pick −0 like the Go builtin regardless.
func TestMinZeroSignMatchesBuiltin(t *testing.T) {
	requireAVX2(t)
	negZero := math.Copysign(0, -1)
	h := []float64{0, negZero, 0, negZero, 1, -1, 0, negZero, 0, negZero, 2, -2}
	cands := make([]int, len(h))
	for i := range cands {
		cands[i] = i
	}
	for _, qd := range []float64{negZero, 0} {
		for name, acc := range map[string]func(s []float64){
			"AccMinQ":    func(s []float64) { AccMinQ(s, h, cands, qd) },
			"AccMinQRun": func(s []float64) { AccMinQRun(s, [][]float64{h}, []float64{qd}) },
		} {
			sA := make([]float64, len(h))
			sG := make([]float64, len(h))
			withAVX2(t, true, func() { acc(sA) })
			withAVX2(t, false, func() { acc(sG) })
			if i, ok := bitsEqual(sA, sG); !ok {
				t.Fatalf("%s query %v: slot %d avx2=%x go=%x", name, qd, i,
					math.Float64bits(sA[i]), math.Float64bits(sG[i]))
			}
		}
	}
}
