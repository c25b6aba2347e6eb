package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The pruning-step kernels against the scalar loops they stand for, under
// whichever implementation the build dispatches to (AVX2, or the portable
// bodies under -tags purego): every length 0–67 plus a small and a full
// segment, every base offset 0–7 into a shared backing array, and the
// inputs a compress-store could get wrong — all rows dead or none, ties,
// ±0, ±Inf and NaN.

var pruneLens = func() []int {
	var ls []int
	for n := 0; n <= 67; n++ {
		ls = append(ls, n)
	}
	return append(ls, 250, 1000)
}()

// pruneScores fills n scores of which about livePct per cent are drawn and
// the rest hold dead; drawn values include exact ties, ±0, the other
// infinity and NaN.
func pruneScores(rng *rand.Rand, n, livePct int, dead float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(100) >= livePct {
			s[i] = dead
			continue
		}
		switch rng.Intn(10) {
		case 0:
			s[i] = 0.5 // a tie
		case 1:
			s[i] = math.Copysign(0, -1)
		case 2:
			s[i] = -dead
		case 3:
			s[i] = math.NaN()
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

func TestCompactLiveMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	backing := make([]float64, 1000+8)
	tailBacking := make([]float64, 1000+8)
	for _, n := range pruneLens {
		for base := 0; base <= 7; base++ {
			for _, livePct := range []int{0, 10, 50, 90, 100} {
				dead := math.Inf(1 - 2*rng.Intn(2))
				score0 := pruneScores(rng, n, livePct, dead)
				tails0 := make([]float64, n)
				for i := range tails0 {
					tails0[i] = rng.NormFloat64()
				}
				// The scalar loop compact replaced.
				wantC, wantS, wantT := make([]int, n), append([]float64(nil), score0...), append([]float64(nil), tails0...)
				want := 0
				for r, s := range wantS {
					wantC[want], wantS[want], wantT[want] = r, s, wantT[r]
					if math.Float64bits(s) != math.Float64bits(dead) {
						want++
					}
				}
				for _, withTails := range []bool{false, true} {
					label := fmt.Sprintf("n=%d base=%d live=%d%% tails=%v", n, base, livePct, withTails)
					score := backing[base : base+n]
					copy(score, score0)
					var tails []float64
					if withTails {
						tails = tailBacking[base : base+n]
						copy(tails, tails0)
					}
					cands := make([]int, n)
					got := CompactLive(cands, score, tails, dead)
					if got != want {
						t.Fatalf("%s: %d live, want %d", label, got, want)
					}
					for i := 0; i < want; i++ {
						if cands[i] != wantC[i] || !sameFloat(score[i], wantS[i]) ||
							withTails && math.Float64bits(tails[i]) != math.Float64bits(wantT[i]) {
							t.Fatalf("%s: slot %d = (%d, %v), want (%d, %v)", label, i, cands[i], score[i], wantC[i], wantS[i])
						}
					}
				}
			}
		}
	}
}

func TestLaneMaxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	backing := make([]float64, 1000+8)
	for _, n := range pruneLens {
		for base := 0; base <= 7; base++ {
			for _, negate := range []bool{false, true} {
				xs := backing[base : base+n]
				copy(xs, pruneScores(rng, n, 70, math.Inf(-1)))
				for i := range xs {
					if xs[i] != xs[i] {
						xs[i] = 1 // lanes are unspecified under a NaN
					}
				}
				var got, want [SelectLanes]float64
				for j := range got {
					got[j] = rng.NormFloat64() // overwritten, never read
					want[j] = math.Inf(-1)
				}
				LaneMax(&got, xs, negate)
				for i, x := range xs {
					j := i % SelectLanes
					if i >= n&^(SelectLanes-1) {
						j = i % 4
					}
					if negate {
						x = -x
					}
					want[j] = max(want[j], x)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("n=%d base=%d negate=%v: lane %d = %v, want %v", n, base, negate, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// SortLanes against sort.Float64s, over random lanes, few distinct values
// (ties across every lane boundary), ±0, ±Inf, and sorted and reversed input.
func TestSortLanesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var inputs [][SelectLanes]float64
	for trial := 0; trial < 2000; trial++ {
		var v [SelectLanes]float64
		levels := 1 + rng.Intn(40)
		for i := range v {
			switch rng.Intn(12) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				v[i] = float64(rng.Intn(levels)) - float64(levels)/2
			}
		}
		inputs = append(inputs, v)
	}
	var asc, desc [SelectLanes]float64
	for i := range asc {
		asc[i], desc[i] = float64(i), float64(-i)
	}
	inputs = append(inputs, asc, desc)
	for _, v := range inputs {
		want := append([]float64(nil), v[:]...)
		sort.Float64s(want)
		got := v
		SortLanes(&got)
		for i := range got {
			if got[i] != want[len(want)-1-i] {
				t.Fatalf("SortLanes(%v)[%d] = %v, want %v", v, i, got[i], want[len(want)-1-i])
			}
		}
	}
}

func TestSelectAtLeastMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	backing := make([]float64, 1000+8)
	for _, n := range pruneLens {
		for base := 0; base <= 7; base++ {
			xs := backing[base : base+n]
			copy(xs, pruneScores(rng, n, 80, math.Inf(-1)))
			for _, negate := range []bool{false, true} {
				floors := []float64{math.Inf(-1), 0, 0.5, rng.NormFloat64(), math.Inf(1)}
				if n > 0 {
					floors = append(floors, xs[rng.Intn(n)]) // a tie, or a NaN floor
				}
				for _, floor := range floors {
					// A full buffer and ones that fill part-way through xs,
					// starting empty or holding a few values.
					for _, room := range []int{n + 4, n / 2, 5, 3, 0} {
						for _, pre := range []int{0, 2} {
							label := fmt.Sprintf("n=%d base=%d negate=%v floor=%v room=%d pre=%d", n, base, negate, floor, room, pre)
							dst := make([]float64, pre, pre+room)
							for i := range dst {
								dst[i] = -7
							}
							want := append([]float64(nil), dst...)
							used := 0
							for ; used < n && len(want) < cap(dst); used++ {
								y := xs[used]
								if negate {
									y = -y
								}
								if y >= floor {
									want = append(want, y)
								}
							}
							got, gotUsed := SelectAtLeast(dst, xs, floor, negate)
							if gotUsed != used || len(got) != len(want) || cap(got) != cap(dst) {
								t.Fatalf("%s: kept %d after %d, want %d after %d", label, len(got), gotUsed, len(want), used)
							}
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%s: slot %d = %v, want %v", label, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCompactKeptMatchesScalar holds CompactReaching and CompactAtMost to
// the scalar keep-and-compact loop, bit for bit: every length up to 67 and
// two segment sizes, every alignment, a first row from anywhere in the
// slice with the output cursor anywhere at or before it, 0–100 % of the
// rows dead, thresholds that tie existing scores, and ±0, ±Inf and NaN.
func TestCompactKeptMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	backing := make([]float64, 1000+8)
	for _, n := range pruneLens {
		for base := 0; base <= 7; base++ {
			for _, livePct := range []int{0, 1, 10, 50, 90, 100} {
				for _, reaching := range []bool{false, true} {
					dead := math.Inf(1)
					if reaching {
						dead = math.Inf(-1)
					}
					score0 := pruneScores(rng, n, livePct, dead)
					from := rng.Intn(n + 1)
					if rng.Intn(2) == 0 {
						from = 0
					}
					out0 := rng.Intn(from + 1)
					allow := rng.Float64()
					floor, limit := rng.NormFloat64(), rng.NormFloat64()
					if n > 0 && rng.Intn(2) == 0 {
						if s := score0[rng.Intn(n)]; s == s && !math.IsInf(s, 0) {
							floor, limit = s+allow, s // exact ties
						}
					}
					keep := func(s float64) bool { return s <= limit }
					if reaching {
						keep = func(s float64) bool { return s+allow >= floor }
					}

					wantC, wantS := make([]int, n), append([]float64(nil), score0...)
					want := out0
					for r := from; r < n; r++ {
						s := wantS[r]
						if keep(s) {
							wantC[want], wantS[want] = r, s
							want++
						}
					}

					score := backing[base : base+n]
					copy(score, score0)
					cands := make([]int, n)
					var got int
					if reaching {
						got = CompactReaching(cands, score, from, out0, allow, floor)
					} else {
						got = CompactAtMost(cands, score, from, out0, limit)
					}
					label := fmt.Sprintf("n=%d base=%d live=%d%% reaching=%v from=%d out=%d", n, base, livePct, reaching, from, out0)
					if got != want {
						t.Fatalf("%s: out %d, want %d", label, got, want)
					}
					for i := out0; i < want; i++ {
						if cands[i] != wantC[i] || !sameFloat(score[i], wantS[i]) {
							t.Fatalf("%s: slot %d = (%d, %v), want (%d, %v)", label, i, cands[i], score[i], wantC[i], wantS[i])
						}
					}
					for i := 0; i < out0; i++ {
						if !sameFloat(score[i], score0[i]) {
							t.Fatalf("%s: slot %d before the cursor changed", label, i)
						}
					}
				}
			}
		}
	}
}
