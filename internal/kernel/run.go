package kernel

import "math"

// The run kernels fold several columns at once into row-indexed scores over
// a run of contiguous rows: score[r] += f(cols[j][r], q[j]) for j in call
// order — BOND's first phase (paper Section 6.1), while nearly every row of
// a segment is still a candidate and an id list would only say 0, 1, 2, ….
// Per cell they move the 8 column bytes and nothing else; the gather
// kernels move 32 (id, column value, score load, score store). Each slot
// receives one addition per column in the order of the call, with the same
// per-term arithmetic as the gather kernel of the same name, so a score is
// bit-identical whichever of the two folded it.
//
// Every cols[j] must hold at least len(score) values, q and w at least
// len(cols), and tails at least len(score); the kernels panic otherwise.
// The test is on len: a reslice alone checks cap, and would let the stale
// values past a short column's len into the scores.

// runBlock is the row-block width of the portable bodies: 4 KB of scores
// (and as much of tails) stays in L1 while the call's columns pass over it.
const runBlock = 512

// covers panics unless s holds at least n values.
func covers(s []float64, n int) {
	if len(s) < n {
		panic("kernel: run kernel argument too short")
	}
}

// runPrefix checks that every column covers the run — the assembly and the
// portable bodies both trust it — and reports how many leading rows the
// AVX2 variant takes (a multiple of 4, 0 when the run is too short or there
// is no AVX2).
func runPrefix(cols [][]float64, rows int) int {
	for _, col := range cols {
		covers(col, rows)
	}
	if !hasAVX2 || rows < simdMin || len(cols) == 0 {
		return 0
	}
	return rows &^ 3
}

// minQPrefix is runPrefix for the min kernels. Their AVX2 bodies take the
// minimum with one VMINPD, q first, which returns the column value on a
// tie and on a NaN: the builtin's min (−0 < +0, NaN poisons) for every
// column value, unless q itself is NaN or −0. A call with such a q runs
// in the portable body. Query validation refuses a NaN q, so only a −0
// can send a query there.
func minQPrefix(cols [][]float64, rows int, q []float64) int {
	n := runPrefix(cols, rows)
	for _, x := range q[:len(cols)] {
		if x != x || math.Float64bits(x) == 1<<63 {
			return 0
		}
	}
	return n
}

// AccSqDistRun: score[r] += (cols[j][r] − q[j])².
func AccSqDistRun(score []float64, cols [][]float64, q []float64) {
	covers(q, len(cols))
	n := runPrefix(cols, len(score))
	if n > 0 {
		accSqDistRunAVX2(&score[0], &cols[0], len(cols), n, &q[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		for j, col := range cols {
			qd := q[j]
			for i, v := range col[lo : lo+len(sb)] {
				d := v - qd
				sb[i] += d * d
			}
		}
	}
}

// AccSqDistTailsRun is AccSqDistRun plus tails[r] −= cols[j][r].
func AccSqDistTailsRun(score, tails []float64, cols [][]float64, q []float64) {
	covers(q, len(cols))
	covers(tails, len(score))
	n := runPrefix(cols, len(score))
	if n > 0 {
		accSqDistTailsRunAVX2(&score[0], &tails[0], &cols[0], len(cols), n, &q[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		tb := tails[lo : lo+len(sb)]
		for j, col := range cols {
			qd := q[j]
			for i, v := range col[lo : lo+len(sb)] {
				d := v - qd
				sb[i] += d * d
				tb[i] -= v
			}
		}
	}
}

// AccWSqDistRun: score[r] += w[j]·(cols[j][r] − q[j])², associated
// (w·d)·d like AccWSqDist.
func AccWSqDistRun(score []float64, cols [][]float64, q, w []float64) {
	covers(q, len(cols))
	covers(w, len(cols))
	n := runPrefix(cols, len(score))
	if n > 0 {
		accWSqDistRunAVX2(&score[0], &cols[0], len(cols), n, &q[0], &w[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		for j, col := range cols {
			qd, wd := q[j], w[j]
			for i, v := range col[lo : lo+len(sb)] {
				d := v - qd
				sb[i] += wd * d * d
			}
		}
	}
}

// AccWSqDistTailsRun is AccWSqDistRun plus tails[r] −= cols[j][r].
func AccWSqDistTailsRun(score, tails []float64, cols [][]float64, q, w []float64) {
	covers(q, len(cols))
	covers(w, len(cols))
	covers(tails, len(score))
	n := runPrefix(cols, len(score))
	if n > 0 {
		accWSqDistTailsRunAVX2(&score[0], &tails[0], &cols[0], len(cols), n, &q[0], &w[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		tb := tails[lo : lo+len(sb)]
		for j, col := range cols {
			qd, wd := q[j], w[j]
			for i, v := range col[lo : lo+len(sb)] {
				d := v - qd
				sb[i] += wd * d * d
				tb[i] -= v
			}
		}
	}
}

// AccMinQRun: score[r] += min(cols[j][r], q[j]), the builtin's ordering
// (−0 < +0, NaN poisons) as in AccMinQ.
func AccMinQRun(score []float64, cols [][]float64, q []float64) {
	covers(q, len(cols))
	n := minQPrefix(cols, len(score), q)
	if n > 0 {
		accMinQRunAVX2(&score[0], &cols[0], len(cols), n, &q[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		for j, col := range cols {
			qd := q[j]
			for i, v := range col[lo : lo+len(sb)] {
				sb[i] += min(v, qd)
			}
		}
	}
}

// AccMinQTailsRun is AccMinQRun plus tails[r] −= cols[j][r].
func AccMinQTailsRun(score, tails []float64, cols [][]float64, q []float64) {
	covers(q, len(cols))
	covers(tails, len(score))
	n := minQPrefix(cols, len(score), q)
	if n > 0 {
		accMinQTailsRunAVX2(&score[0], &tails[0], &cols[0], len(cols), n, &q[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		tb := tails[lo : lo+len(sb)]
		for j, col := range cols {
			qd := q[j]
			for i, v := range col[lo : lo+len(sb)] {
				sb[i] += min(v, qd)
				tb[i] -= v
			}
		}
	}
}

// AccWMinQRun: score[r] += w[j]·min(cols[j][r], q[j]).
func AccWMinQRun(score []float64, cols [][]float64, q, w []float64) {
	covers(q, len(cols))
	covers(w, len(cols))
	n := minQPrefix(cols, len(score), q)
	if n > 0 {
		accWMinQRunAVX2(&score[0], &cols[0], len(cols), n, &q[0], &w[0])
	}
	for lo := n; lo < len(score); lo += runBlock {
		sb := score[lo:min(lo+runBlock, len(score))]
		for j, col := range cols {
			qd, wd := q[j], w[j]
			for i, v := range col[lo : lo+len(sb)] {
				sb[i] += wd * min(v, qd)
			}
		}
	}
}

// KeepAtMost is the dense phase's prune for the distance criteria: every
// score above limit (or NaN) is replaced by dead, in place, and the number
// of scores kept is returned. A score that already is dead must fail the
// test, i.e. dead > limit.
func KeepAtMost(score []float64, limit, dead float64) int {
	kept, n := 0, 0
	if hasAVX2 && len(score) >= simdMin {
		n = len(score) &^ 3
		kept = keepAtMostAVX2(&score[0], n, limit, dead)
	}
	for r := n; r < len(score); r++ {
		if score[r] <= limit {
			kept++
		} else {
			score[r] = dead
		}
	}
	return kept
}

// KeepReaching is the dense phase's prune for the query-only histogram
// criterion: a score s is kept when s+allow ≥ floor (the tail allowance
// T(q⁺), and the local or the carried κ), and replaced by dead otherwise.
// A score that already is dead must fail.
func KeepReaching(score []float64, allow, floor, dead float64) int {
	kept, n := 0, 0
	if hasAVX2 && len(score) >= simdMin {
		n = len(score) &^ 3
		kept = keepReachingAVX2(&score[0], n, allow, floor, dead)
	}
	for r := n; r < len(score); r++ {
		if s := score[r]; s+allow >= floor {
			kept++
		} else {
			score[r] = dead
		}
	}
	return kept
}
