package kernel

import (
	"cmp"
	"math"
	"slices"
)

// The pruning-step kernels: what a BOND step does besides folding columns.
// LaneMax, SortLanes and SelectAtLeast make up the kfetch that finds κ
// (package topk drives them); CompactLive is the one-time switch from the
// dense phase to the candidate list (paper Section 6.1), and
// CompactReaching and CompactAtMost fold a prune into that switch.
//
// Scores are never NaN: the engine admits only finite coordinates and
// queries whose scores cannot overflow. Given a NaN anyway, these kernels
// neither panic nor touch memory outside their arguments; LaneMax's lanes
// and SortLanes' order are then unspecified, SelectAtLeast never selects
// the NaN, CompactLive keeps it as a live row, and CompactReaching and
// CompactAtMost drop it.

// SelectLanes is the number of lane extrema LaneMax keeps.
const SelectLanes = 32

// signMask is the XOR that negates a float64: the sign bit when negate,
// else nothing.
func signMask(negate bool) uint64 {
	if negate {
		return 1 << 63
	}
	return 0
}

// b2i is 1 for true, 0 for false; it compiles to a flag move, which keeps
// the portable select and compaction loops free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// noLanes is every lane at −Inf, the maximum of no element.
var noLanes = func() (l [SelectLanes]float64) {
	for j := range l {
		l[j] = math.Inf(-1)
	}
	return l
}()

// LaneMax sets lanes[j] to the maximum of y = ±x (−x when negate) over the
// elements x of xs assigned to lane j, or −Inf if there are none. The
// first len(xs)&^31 elements go to lane i mod 32 and the rest to lane
// i mod 4, so the lanes partition xs into disjoint groups and each lane
// above −Inf holds a distinct element of ±xs. Lanes compare like the max
// builtin except that a tie of ±0 may keep either zero.
func LaneMax(lanes *[SelectLanes]float64, xs []float64, negate bool) {
	sign := signMask(negate)
	i := 0
	if hasAVX2 && len(xs) >= simdMin {
		i = len(xs) &^ 3
		laneMaxAVX2(lanes, &xs[0], i, sign)
	} else {
		*lanes = noLanes
		for ; i+SelectLanes <= len(xs); i += SelectLanes {
			for j, x := range xs[i : i+SelectLanes] {
				lanes[j] = max(lanes[j], math.Float64frombits(math.Float64bits(x)^sign))
			}
		}
	}
	for ; i < len(xs); i++ {
		lanes[i&3] = max(lanes[i&3], math.Float64frombits(math.Float64bits(xs[i])^sign))
	}
}

// SortLanes sorts the lanes in descending order. The AVX2 body is a fixed
// sorting network, with no branch on the values, so a k-th lane costs the
// same on every input; the portable body sorts. A tie of ±0 may come out
// as either zero.
func SortLanes(lanes *[SelectLanes]float64) {
	if hasAVX2 {
		sortLanesAVX2(lanes)
		return
	}
	slices.SortFunc(lanes[:], func(a, b float64) int { return cmp.Compare(b, a) })
}

// SelectAtLeast appends y = ±x (−x when negate) to dst for every x of xs,
// in order, with y ≥ floor, and stops when dst is full (len = cap). It
// returns the extended dst and how many elements of xs it examined: all of
// them unless dst filled first.
func SelectAtLeast(dst, xs []float64, floor float64, negate bool) ([]float64, int) {
	sign := signMask(negate)
	out, room := len(dst), cap(dst)
	buf := dst[:room]
	i := 0
	if hasAVX2 && len(xs) >= simdMin && room-out >= 4 {
		var w int
		w, i = selectAtLeastAVX2(&buf[out], room-out, &xs[0], len(xs)&^3, floor, sign)
		out += w
	}
	// Branch-free: every y is written at the cursor, which advances past it
	// only when it is selected.
	for ; i < len(xs) && out < room; i++ {
		y := math.Float64frombits(math.Float64bits(xs[i]) ^ sign)
		buf[out] = y
		out += b2i(y >= floor)
	}
	return buf[:out], i
}

// CompactLive moves every live row to the front: for each row r, in order,
// whose score is not dead (compared by bits), cands[out] = r,
// score[out] = score[r] and, when tails is non-nil, tails[out] = tails[r].
// It returns the number of live rows. cands, and tails if non-nil, must
// hold at least len(score) values.
func CompactLive(cands []int, score, tails []float64, dead float64) int {
	n := len(score)
	cands = cands[:n]
	if tails != nil {
		tails = tails[:n]
	}
	deadBits := math.Float64bits(dead)
	out, r := 0, 0
	if hasAVX2 && n >= simdMin {
		r = n &^ 3
		if tails == nil {
			out = compactLiveAVX2(&cands[0], &score[0], r, deadBits)
		} else {
			out = compactLiveTailsAVX2(&cands[0], &score[0], &tails[0], r, deadBits)
		}
	}
	if tails == nil {
		for ; r < n; r++ {
			s := score[r]
			cands[out], score[out] = r, s
			out += b2i(math.Float64bits(s) != deadBits)
		}
		return out
	}
	for ; r < n; r++ {
		s := score[r]
		cands[out], score[out], tails[out] = r, s, tails[r]
		out += b2i(math.Float64bits(s) != deadBits)
	}
	return out
}

// CompactReaching is KeepReaching and CompactLive in one pass, for a dense
// phase whose prune leaves few rows: every row r ≥ from whose score s has
// s+allow ≥ floor moves to the front in row order, from slot out on —
// cands[out] = r, score[out] = s — and the new out is returned. It needs
// out ≤ from ≤ len(score) ≤ len(cands). Past the returned out, score and
// cands hold unspecified values; the rows before from are not read. A
// dead score (−Inf) must fail the test.
func CompactReaching(cands []int, score []float64, from, out int, allow, floor float64) int {
	n := compactRange(cands, score, from, out)
	if n > from {
		out = compactReachingAVX2(&cands[0], &score[0], from, n, out, allow, floor)
	}
	for r := n; r < len(score); r++ {
		s := score[r]
		cands[out], score[out] = r, s
		out += b2i(s+allow >= floor)
	}
	return out
}

// CompactAtMost is CompactReaching for the distance prune: the rows kept
// are those whose score is at most limit. A dead score (+Inf) must fail.
func CompactAtMost(cands []int, score []float64, from, out int, limit float64) int {
	n := compactRange(cands, score, from, out)
	if n > from {
		out = compactAtMostAVX2(&cands[0], &score[0], from, n, out, limit)
	}
	for r := n; r < len(score); r++ {
		s := score[r]
		cands[out], score[out] = r, s
		out += b2i(s <= limit)
	}
	return out
}

// compactRange checks the arguments of the one-pass compactions and
// returns the end of the rows the AVX2 body takes: from plus a multiple of
// 4, or from itself when it takes none.
func compactRange(cands []int, score []float64, from, out int) int {
	if out < 0 || out > from || from > len(score) || len(cands) < len(score) {
		panic("kernel: compaction arguments out of range")
	}
	if !hasAVX2 || len(score)-from < simdMin {
		return from
	}
	return from + (len(score)-from)&^3
}
