package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"bond/internal/mmap"
)

// The run kernels promise the bits of the gather kernels, which promise the
// bits of the scalar loops. This file holds each of them to both, under
// whichever implementation the build dispatches to (AVX2, or the portable
// bodies under -tags purego).

// runVariant pairs a run kernel with the gather kernel of the same name and
// the scalar loop both replace. tails marks the variants that maintain the
// remaining masses; the others must leave that slice alone.
type runVariant struct {
	name   string
	tails  bool
	run    func(score, tails []float64, cols [][]float64, q, w []float64)
	gather func(score, tails, col []float64, ids []int, qd, wd float64)
	scalar func(s, t *float64, v, qd, wd float64)
}

var runVariants = []runVariant{
	{"SqDist", false,
		func(s, _ []float64, c [][]float64, q, _ []float64) { AccSqDistRun(s, c, q) },
		func(s, _, col []float64, ids []int, qd, _ float64) { AccSqDist(s, col, ids, qd) },
		func(s, _ *float64, v, qd, _ float64) { d := v - qd; *s += d * d }},
	{"SqDistTails", true,
		func(s, t []float64, c [][]float64, q, _ []float64) { AccSqDistTailsRun(s, t, c, q) },
		func(s, t, col []float64, ids []int, qd, _ float64) { AccSqDistTails(s, t, col, ids, qd) },
		func(s, t *float64, v, qd, _ float64) { d := v - qd; *s += d * d; *t -= v }},
	{"WSqDist", false,
		func(s, _ []float64, c [][]float64, q, w []float64) { AccWSqDistRun(s, c, q, w) },
		func(s, _, col []float64, ids []int, qd, wd float64) { AccWSqDist(s, col, ids, qd, wd) },
		func(s, _ *float64, v, qd, wd float64) { d := v - qd; *s += wd * d * d }},
	{"WSqDistTails", true,
		func(s, t []float64, c [][]float64, q, w []float64) { AccWSqDistTailsRun(s, t, c, q, w) },
		func(s, t, col []float64, ids []int, qd, wd float64) { AccWSqDistTails(s, t, col, ids, qd, wd) },
		func(s, t *float64, v, qd, wd float64) { d := v - qd; *s += wd * d * d; *t -= v }},
	{"MinQ", false,
		func(s, _ []float64, c [][]float64, q, _ []float64) { AccMinQRun(s, c, q) },
		func(s, _, col []float64, ids []int, qd, _ float64) { AccMinQ(s, col, ids, qd) },
		func(s, _ *float64, v, qd, _ float64) { *s += min(v, qd) }},
	{"MinQTails", true,
		func(s, t []float64, c [][]float64, q, _ []float64) { AccMinQTailsRun(s, t, c, q) },
		func(s, t, col []float64, ids []int, qd, _ float64) { AccMinQTails(s, t, col, ids, qd) },
		func(s, t *float64, v, qd, _ float64) { *s += min(v, qd); *t -= v }},
	{"WMinQ", false,
		func(s, _ []float64, c [][]float64, q, w []float64) { AccWMinQRun(s, c, q, w) },
		func(s, _, col []float64, ids []int, qd, wd float64) { AccWMinQ(s, col, ids, qd, wd) },
		func(s, _ *float64, v, qd, wd float64) { *s += wd * min(v, qd) }},
}

// edgeValues are the inputs the min trick and the plain arithmetic must not
// smooth over.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 1, -1,
}

func edgeOrRandom(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return edgeValues[rng.Intn(len(edgeValues))]
	}
	return rng.NormFloat64()
}

// mappedFloats writes vals to a file and returns them as a read-only
// memory-mapped []float64, the backing a sealed segment's columns have.
func mappedFloats(t *testing.T, vals []float64) []float64 {
	t.Helper()
	if !mmap.Supported() {
		t.Skip("no mmap on this platform")
	}
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	path := filepath.Join(t.TempDir(), "cols")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	b, err := mmap.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmap.Unmap(b) })
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(vals))
}

// sameFloat is bit equality, except that any NaN equals any other: the
// vminpd/vorpd min and the builtin agree that a NaN input poisons the slot,
// not on which payload it leaves there.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkRunKernels compares every variant, on rows [base, base+n) of ncols
// columns cut from backing (each column maxRows+8 values apart), with the
// scalar loop and with the gather kernel over an identity list.
func checkRunKernels(t *testing.T, rng *rand.Rand, backing []float64, stride, base, n, ncols int) {
	t.Helper()
	cols := make([][]float64, ncols)
	q, w := make([]float64, ncols), make([]float64, ncols)
	for j := range cols {
		cols[j] = backing[j*stride+base : j*stride+base+n]
		q[j], w[j] = edgeOrRandom(rng), rng.Float64()+0.1
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	score0, tails0 := make([]float64, n), make([]float64, n)
	for i := range score0 {
		score0[i], tails0[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, v := range runVariants {
		label := fmt.Sprintf("%s n=%d base=%d cols=%d", v.name, n, base, ncols)
		clone := func() (s, tl []float64) {
			return append([]float64(nil), score0...), append([]float64(nil), tails0...)
		}
		rs, rt := clone()
		v.run(rs, rt, cols, q, w)
		gs, gt := clone()
		ss, st := clone()
		for j, col := range cols {
			v.gather(gs, gt, col, ids, q[j], w[j])
			for r := range ss {
				v.scalar(&ss[r], &st[r], col[r], q[j], w[j])
			}
		}
		for _, want := range []struct {
			what string
			s, t []float64
		}{{"scalar", ss, st}, {"gather", gs, gt}} {
			for r := 0; r < n; r++ {
				if !sameFloat(rs[r], want.s[r]) {
					t.Fatalf("%s: score[%d] = %x, %s %x", label, r,
						math.Float64bits(rs[r]), want.what, math.Float64bits(want.s[r]))
				}
				if !sameFloat(rt[r], want.t[r]) {
					t.Fatalf("%s: tails[%d] = %x, %s %x", label, r,
						math.Float64bits(rt[r]), want.what, math.Float64bits(want.t[r]))
				}
			}
		}
		if !v.tails {
			for r := range rt {
				if math.Float64bits(rt[r]) != math.Float64bits(tails0[r]) {
					t.Fatalf("%s: wrote tails[%d]", label, r)
				}
			}
		}
	}
}

func TestRunKernelsBitIdentical(t *testing.T) {
	const maxRows, maxCols, stride = 67, 9, 67 + 8
	rng := rand.New(rand.NewSource(23))
	heap := make([]float64, maxCols*stride)
	for i := range heap {
		heap[i] = edgeOrRandom(rng)
	}
	backings := []struct {
		name string
		vals func(t *testing.T) []float64
	}{
		{"heap", func(*testing.T) []float64 { return heap }},
		{"mmap", func(t *testing.T) []float64 { return mappedFloats(t, heap) }},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			vals := b.vals(t)
			for n := 0; n <= maxRows; n++ {
				for base := 0; base <= 7; base++ {
					// Every column count at a few lengths, a few at every length.
					for ncols := 1; ncols <= maxCols; ncols++ {
						if n%8 != 3 && ncols != 1 && ncols != 8 && ncols != maxCols {
							continue
						}
						checkRunKernels(t, rng, vals, stride, base, n, ncols)
					}
				}
			}
		})
	}
}

// A short argument panics even when its capacity would cover the run: the
// values between len and cap are not the caller's.
func TestRunKernelsRejectShortArguments(t *testing.T) {
	for _, rows := range []int{3, 16} {
		full := func(n int) []float64 { return make([]float64, n, n+4) }
		short := func(n int) []float64 { return make([]float64, n-1, n+4) }
		mustPanic := func(name string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("rows=%d: short %s accepted", rows, name)
				}
			}()
			f()
		}
		score := full(rows)
		cols := [][]float64{full(rows), full(rows)}
		badCols := [][]float64{full(rows), short(rows)}
		mustPanic("column", func() { AccSqDistRun(score, badCols, full(2)) })
		mustPanic("column", func() { AccSqDistTailsRun(score, full(rows), badCols, full(2)) })
		mustPanic("column", func() { AccWSqDistRun(score, badCols, full(2), full(2)) })
		mustPanic("column", func() { AccWSqDistTailsRun(score, full(rows), badCols, full(2), full(2)) })
		mustPanic("column", func() { AccMinQRun(score, badCols, full(2)) })
		mustPanic("column", func() { AccMinQTailsRun(score, full(rows), badCols, full(2)) })
		mustPanic("column", func() { AccWMinQRun(score, badCols, full(2), full(2)) })
		mustPanic("q", func() { AccSqDistRun(score, cols, short(2)) })
		mustPanic("q", func() { AccMinQRun(score, cols, short(2)) })
		mustPanic("w", func() { AccWSqDistRun(score, cols, full(2), short(2)) })
		mustPanic("w", func() { AccWMinQRun(score, cols, full(2), short(2)) })
		mustPanic("tails", func() { AccSqDistTailsRun(score, short(rows), cols, full(2)) })
		mustPanic("tails", func() { AccWSqDistTailsRun(score, short(rows), cols, full(2), full(2)) })
		mustPanic("tails", func() { AccMinQTailsRun(score, short(rows), cols, full(2)) })
	}
}

// The keep kernels against the scalar tests they stand for, over thresholds
// that tie with scores exactly and scores that are NaN, ±Inf or already
// dead.
func TestKeepKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			score := make([]float64, n)
			for i := range score {
				score[i] = edgeOrRandom(rng)
			}
			pick := func() float64 {
				if n > 0 && rng.Intn(2) == 0 {
					if v := score[rng.Intn(n)]; v == v {
						return v // an exact tie, unless NaN
					}
				}
				return rng.NormFloat64()
			}

			limit, dead := pick(), math.Inf(1)
			got := append([]float64(nil), score...)
			kept := KeepAtMost(got, limit, dead)
			want := 0
			for i, s := range score {
				keep := s <= limit
				if keep {
					want++
				}
				if keep && math.Float64bits(got[i]) != math.Float64bits(s) || !keep && got[i] != dead {
					t.Fatalf("KeepAtMost n=%d limit=%v: score %v became %v (keep %v)", n, limit, s, got[i], keep)
				}
			}
			if kept != want {
				t.Fatalf("KeepAtMost n=%d limit=%v: kept %d, want %d", n, limit, kept, want)
			}

			allow := rng.Float64()
			floor, dead := pick()+allow, math.Inf(-1)
			got = append(got[:0], score...)
			kept = KeepReaching(got, allow, floor, dead)
			want = 0
			for i, s := range score {
				keep := s+allow >= floor
				if keep {
					want++
				}
				if keep && math.Float64bits(got[i]) != math.Float64bits(s) || !keep && got[i] != dead {
					t.Fatalf("KeepReaching n=%d: score %v became %v (keep %v)", n, s, got[i], keep)
				}
			}
			if kept != want {
				t.Fatalf("KeepReaching n=%d: kept %d, want %d", n, kept, want)
			}
		}
	}
}
