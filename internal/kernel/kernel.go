// Package kernel provides the allocation-free inner loops of the search
// engine: distance and similarity accumulation over decomposed columns,
// 8-bit code-table lookups, VA-File row sums, and a pruning step's κ
// selection and dense → list compaction (prune.go).
//
// Each kernel has two implementations. The portable one is written for
// the Go compiler's strengths: a 4× unrolled main loop with a scalar
// tail, slice re-slicing up front so bounds checks hoist out of the loop
// body, and branch-free min selection via the intrinsified min builtin
// instead of a data-dependent branch that mispredicts ~50% of the time on
// random data. On amd64 an AVX2 variant (hand-written assembly, selected
// once at init by CPUID feature detection) replaces the main loop; the
// `purego` build tag forces the portable bodies everywhere, and every
// exported function dispatches so callers never know which ran.
//
// The gather kernels (positional lookup through a candidate list) and the
// run kernels (whole columns into row-indexed scores, see run.go)
// accumulate into per-candidate slots, so each slot receives exactly one
// addition per column in the same order as the scalar loops they replace —
// scores are bit-identical whichever implementation and whichever of the
// two forms runs, which is what keeps every access path's answer
// byte-equal to the sequential-scan oracle. Their AVX2 variants therefore
// use plain vsubpd/vmulpd/vaddpd, never FMA: a fused multiply-add rounds
// once where the scalar code rounds twice, and that last-bit difference
// would break the oracle equality. The one dense kernel, SqDist (a
// whole-vector distance, which no search path calls: the end-to-end
// benchmark times it as a row-major reference), instead uses
// independent accumulators for instruction-level parallelism — four scalar
// ones in the portable code, four 4-wide vector ones in the AVX2 code — so
// its sum may differ from a left-to-right fold (and between
// implementations) in the last few ulps.
//
// None of the kernels allocate.
package kernel

// simdMin is the slice length below which the exported wrappers skip the
// AVX2 variants: under two vector iterations of work, the dispatch and
// vzeroupper overhead costs more than the vectors save.
const simdMin = 8

// SIMD reports which vector instruction set the kernels dispatch to:
// "avx2", or "none" for the portable Go bodies (non-amd64 platforms, the
// purego build tag, or CPUs without AVX2).
func SIMD() string {
	if hasAVX2 {
		return "avx2"
	}
	return "none"
}

// AccSqDist folds one column into partial squared-Euclidean scores:
// score[i] += (col[cands[i]] − qd)² for every candidate. len(score) must be
// at least len(cands). It runs AccWSqDist's body at w = 1, which gives the
// same bits: 1·d = d exactly, so (1·d)·d = d·d.
func AccSqDist(score []float64, col []float64, cands []int, qd float64) {
	AccWSqDist(score, col, cands, qd, 1)
}

// AccSqDistTails is AccSqDist plus remaining-mass maintenance:
// tails[i] -= col[cands[i]]. len(score) and len(tails) must be at least
// len(cands). It runs AccWSqDistTails's body at w = 1.
func AccSqDistTails(score, tails []float64, col []float64, cands []int, qd float64) {
	AccWSqDistTails(score, tails, col, cands, qd, 1)
}

// AccWSqDist is the weighted variant: score[i] += w·(col[cands[i]] − qd)².
// The product associates as (w·d)·d, matching the scalar loop exactly.
func AccWSqDist(score []float64, col []float64, cands []int, qd, w float64) {
	score = score[:len(cands)]
	if hasAVX2 && len(cands) >= simdMin {
		n := len(cands) &^ 3
		accWSqDistAVX2(&score[0], &col[0], &cands[0], n, qd, w)
		for i := n; i < len(cands); i++ {
			d := col[cands[i]] - qd
			score[i] += w * d * d
		}
		return
	}
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		d0 := col[cands[i]] - qd
		d1 := col[cands[i+1]] - qd
		d2 := col[cands[i+2]] - qd
		d3 := col[cands[i+3]] - qd
		score[i] += w * d0 * d0
		score[i+1] += w * d1 * d1
		score[i+2] += w * d2 * d2
		score[i+3] += w * d3 * d3
	}
	for ; i < len(cands); i++ {
		d := col[cands[i]] - qd
		score[i] += w * d * d
	}
}

// AccWSqDistTails is AccWSqDist plus remaining-mass maintenance.
func AccWSqDistTails(score, tails []float64, col []float64, cands []int, qd, w float64) {
	score = score[:len(cands)]
	tails = tails[:len(cands)]
	if hasAVX2 && len(cands) >= simdMin {
		n := len(cands) &^ 3
		accWSqDistTailsAVX2(&score[0], &tails[0], &col[0], &cands[0], n, qd, w)
		for i := n; i < len(cands); i++ {
			v := col[cands[i]]
			d := v - qd
			score[i] += w * d * d
			tails[i] -= v
		}
		return
	}
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		v0, v1, v2, v3 := col[cands[i]], col[cands[i+1]], col[cands[i+2]], col[cands[i+3]]
		d0 := v0 - qd
		d1 := v1 - qd
		d2 := v2 - qd
		d3 := v3 - qd
		score[i] += w * d0 * d0
		score[i+1] += w * d1 * d1
		score[i+2] += w * d2 * d2
		score[i+3] += w * d3 * d3
		tails[i] -= v0
		tails[i+1] -= v1
		tails[i+2] -= v2
		tails[i+3] -= v3
	}
	for ; i < len(cands); i++ {
		v := col[cands[i]]
		d := v - qd
		score[i] += w * d * d
		tails[i] -= v
	}
}

// AccMinQ folds one column into partial histogram-intersection scores:
// score[i] += min(col[cands[i]], qd). It runs AccWMinQ's body at w = 1,
// which gives the same bits: 1·min(v, qd) = min(v, qd), −0 and NaN
// included.
func AccMinQ(score []float64, col []float64, cands []int, qd float64) {
	AccWMinQ(score, col, cands, qd, 1)
}

// AccMinQTails is AccMinQ plus remaining-mass maintenance.
func AccMinQTails(score, tails []float64, col []float64, cands []int, qd float64) {
	score = score[:len(cands)]
	tails = tails[:len(cands)]
	if hasAVX2 && len(cands) >= simdMin {
		n := len(cands) &^ 3
		accMinQTailsAVX2(&score[0], &tails[0], &col[0], &cands[0], n, qd)
		for i := n; i < len(cands); i++ {
			v := col[cands[i]]
			score[i] += min(v, qd)
			tails[i] -= v
		}
		return
	}
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		v0, v1, v2, v3 := col[cands[i]], col[cands[i+1]], col[cands[i+2]], col[cands[i+3]]
		score[i] += min(v0, qd)
		score[i+1] += min(v1, qd)
		score[i+2] += min(v2, qd)
		score[i+3] += min(v3, qd)
		tails[i] -= v0
		tails[i+1] -= v1
		tails[i+2] -= v2
		tails[i+3] -= v3
	}
	for ; i < len(cands); i++ {
		v := col[cands[i]]
		score[i] += min(v, qd)
		tails[i] -= v
	}
}

// AccWMinQ is the weighted histogram variant: score[i] += w·min(v, qd).
// The min builtin is intrinsified, so on random data this replaces a
// mispredicting branch; the AVX2 variant reproduces the builtin's −0 < +0
// ordering with a two-vminpd/vorpd sequence (a single vminpd is not
// symmetric in its zero handling).
func AccWMinQ(score []float64, col []float64, cands []int, qd, w float64) {
	score = score[:len(cands)]
	if hasAVX2 && len(cands) >= simdMin {
		n := len(cands) &^ 3
		accWMinQAVX2(&score[0], &col[0], &cands[0], n, qd, w)
		for i := n; i < len(cands); i++ {
			score[i] += w * min(col[cands[i]], qd)
		}
		return
	}
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		score[i] += w * min(col[cands[i]], qd)
		score[i+1] += w * min(col[cands[i+1]], qd)
		score[i+2] += w * min(col[cands[i+2]], qd)
		score[i+3] += w * min(col[cands[i+3]], qd)
	}
	for ; i < len(cands); i++ {
		score[i] += w * min(col[cands[i]], qd)
	}
}

// AccCodeBounds folds one 8-bit code column into the score intervals of a
// compressed filter: per candidate, two table loads and two adds. The 256-
// entry tables live in L1 for the whole column. len(sLo) and len(sHi) must
// be at least len(cands).
func AccCodeBounds(sLo, sHi []float64, codes []uint8, cands []int, tLo, tHi *[256]float64) {
	sLo = sLo[:len(cands)]
	sHi = sHi[:len(cands)]
	if hasAVX2 && len(cands) >= simdMin {
		n := len(cands) &^ 3
		accCodeBoundsAVX2(&sLo[0], &sHi[0], &codes[0], &cands[0], n, tLo, tHi)
		for i := n; i < len(cands); i++ {
			c := codes[cands[i]]
			sLo[i] += tLo[c]
			sHi[i] += tHi[c]
		}
		return
	}
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		c0, c1, c2, c3 := codes[cands[i]], codes[cands[i+1]], codes[cands[i+2]], codes[cands[i+3]]
		sLo[i] += tLo[c0]
		sLo[i+1] += tLo[c1]
		sLo[i+2] += tLo[c2]
		sLo[i+3] += tLo[c3]
		sHi[i] += tHi[c0]
		sHi[i+1] += tHi[c1]
		sHi[i+2] += tHi[c2]
		sHi[i+3] += tHi[c3]
	}
	for ; i < len(cands); i++ {
		c := codes[cands[i]]
		sLo[i] += tLo[c]
		sHi[i] += tHi[c]
	}
}

// VARowSum sums a VA-File bound table over one row-major code row:
// Σ_d tbl[d·256 + row[d]]. tbl must hold len(row)·256 entries (it panics
// otherwise); four independent accumulators hide the load latency. The
// AVX2 variant keeps accumulator j on exactly the dimensions 4k+j the
// scalar s_j sees, so the result is bit-identical.
func VARowSum(tbl []float64, row []uint8) float64 {
	if len(tbl) < len(row)*256 {
		panic("kernel: VA bound table shorter than 256 entries per dimension")
	}
	var s0, s1, s2, s3 float64
	d := 0
	if hasAVX2 && len(row) >= simdMin {
		n := len(row) &^ 3
		var part [4]float64
		vaRowSumAVX2(&tbl[0], &row[0], n, &part)
		s0, s1, s2, s3 = part[0], part[1], part[2], part[3]
		d = n
	} else {
		for ; d+4 <= len(row); d += 4 {
			s0 += tbl[d*256+int(row[d])]
			s1 += tbl[(d+1)*256+int(row[d+1])]
			s2 += tbl[(d+2)*256+int(row[d+2])]
			s3 += tbl[(d+3)*256+int(row[d+3])]
		}
	}
	for ; d < len(row); d++ {
		s0 += tbl[d*256+int(row[d])]
	}
	return (s0 + s1) + (s2 + s3)
}

// SqDist returns the dense squared Euclidean distance Σ (v_i − q_i)² with
// independent accumulators; see the package comment for the few ulps this
// may differ from a left-to-right sum. len(q) must be at least len(v).
func SqDist(v, q []float64) float64 {
	q = q[:len(v)]
	var s0, s1, s2, s3 float64
	i := 0
	if hasAVX2 && len(v) >= simdMin {
		n := len(v) &^ 3
		var part [4]float64
		sqDistAVX2(&v[0], &q[0], n, &part)
		s0, s1, s2, s3 = part[0], part[1], part[2], part[3]
		i = n
	} else {
		for ; i+4 <= len(v); i += 4 {
			d0 := v[i] - q[i]
			d1 := v[i+1] - q[i+1]
			d2 := v[i+2] - q[i+2]
			d3 := v[i+3] - q[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	for ; i < len(v); i++ {
		d := v[i] - q[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}
