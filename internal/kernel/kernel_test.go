package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// The gather kernels must be bit-identical to the scalar loops they
// replaced: each slot receives one addition per column in the same order.
// The dense kernels may differ in the last ulp (independent accumulators),
// so they are checked against a tight relative tolerance.

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

func randCands(rng *rand.Rand, n, max int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = rng.Intn(max)
	}
	return c
}

func TestGatherKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000} {
		col := randSlice(rng, 2048)
		cands := randCands(rng, n, len(col))
		qd := rng.Float64()
		w := rng.Float64() + 0.1

		base := randSlice(rng, n)
		tailsBase := randSlice(rng, n)

		check := func(name string, kernel func(score, tails []float64), scalar func(score, tails []float64)) {
			t.Helper()
			ks, kt := append([]float64(nil), base...), append([]float64(nil), tailsBase...)
			ss, st := append([]float64(nil), base...), append([]float64(nil), tailsBase...)
			kernel(ks, kt)
			scalar(ss, st)
			for i := range ks {
				if ks[i] != ss[i] || kt[i] != st[i] {
					t.Fatalf("%s n=%d slot %d: kernel (%v, %v) != scalar (%v, %v)",
						name, n, i, ks[i], kt[i], ss[i], st[i])
				}
			}
		}

		check("AccSqDist",
			func(score, _ []float64) { AccSqDist(score, col, cands, qd) },
			func(score, _ []float64) {
				for i, id := range cands {
					d := col[id] - qd
					score[i] += d * d
				}
			})
		check("AccSqDistTails",
			func(score, tails []float64) { AccSqDistTails(score, tails, col, cands, qd) },
			func(score, tails []float64) {
				for i, id := range cands {
					v := col[id]
					d := v - qd
					score[i] += d * d
					tails[i] -= v
				}
			})
		check("AccWSqDist",
			func(score, _ []float64) { AccWSqDist(score, col, cands, qd, w) },
			func(score, _ []float64) {
				for i, id := range cands {
					d := col[id] - qd
					score[i] += w * d * d
				}
			})
		check("AccWSqDistTails",
			func(score, tails []float64) { AccWSqDistTails(score, tails, col, cands, qd, w) },
			func(score, tails []float64) {
				for i, id := range cands {
					v := col[id]
					d := v - qd
					score[i] += w * d * d
					tails[i] -= v
				}
			})
		check("AccMinQ",
			func(score, _ []float64) { AccMinQ(score, col, cands, qd) },
			func(score, _ []float64) {
				for i, id := range cands {
					score[i] += math.Min(col[id], qd)
				}
			})
		check("AccMinQTails",
			func(score, tails []float64) { AccMinQTails(score, tails, col, cands, qd) },
			func(score, tails []float64) {
				for i, id := range cands {
					v := col[id]
					score[i] += math.Min(v, qd)
					tails[i] -= v
				}
			})
		check("AccWMinQ",
			func(score, _ []float64) { AccWMinQ(score, col, cands, qd, w) },
			func(score, _ []float64) {
				for i, id := range cands {
					score[i] += w * math.Min(col[id], qd)
				}
			})
	}
}

func TestAccCodeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var tLo, tHi [256]float64
	for c := range tLo {
		tLo[c] = rng.Float64()
		tHi[c] = tLo[c] + rng.Float64()
	}
	for _, n := range []int{0, 1, 3, 4, 5, 100} {
		codes := make([]uint8, 512)
		for i := range codes {
			codes[i] = uint8(rng.Intn(256))
		}
		cands := randCands(rng, n, len(codes))
		kLo, kHi := randSlice(rng, n), randSlice(rng, n)
		sLo := append([]float64(nil), kLo...)
		sHi := append([]float64(nil), kHi...)
		AccCodeBounds(kLo, kHi, codes, cands, &tLo, &tHi)
		for i, id := range cands {
			sLo[i] += tLo[codes[id]]
			sHi[i] += tHi[codes[id]]
		}
		for i := range kLo {
			if kLo[i] != sLo[i] || kHi[i] != sHi[i] {
				t.Fatalf("n=%d slot %d mismatch", n, i)
			}
		}
	}
}

func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

func TestDenseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 4, 5, 31, 32, 33, 166} {
		v, q := randSlice(rng, n), randSlice(rng, n)

		var sq float64
		for i := range v {
			d := v[i] - q[i]
			sq += d * d
		}
		if got := SqDist(v, q); !relClose(got, sq) {
			t.Fatalf("SqDist n=%d: %v want %v", n, got, sq)
		}
	}
}

func TestVARowSum(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range []int{1, 2, 3, 4, 5, 8, 31, 32, 64} {
		tbl := randSlice(rng, dims*256)
		row := make([]uint8, dims)
		for d := range row {
			row[d] = uint8(rng.Intn(256))
		}
		var want float64
		for d, c := range row {
			want += tbl[d*256+int(c)]
		}
		if got := VARowSum(tbl, row); !relClose(got, want) {
			t.Fatalf("dims=%d: %v want %v", dims, got, want)
		}
	}
}
