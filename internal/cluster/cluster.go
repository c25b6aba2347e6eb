// Package cluster implements k-means over vertically decomposed data —
// the clustering direction the paper's Section 9 proposes as future work
// ("a promising direction … is to develop new techniques for other search
// problems in high dimensional spaces (e.g., clustering), when applied to
// dimension-wise decomposed data").
//
// The expensive phase of Lloyd's algorithm is assignment: the distance of
// every point to every centre. On a decomposed store the distances are
// accumulated column-by-column, exactly as BOND accumulates query
// distances, and the same branch-and-bound idea applies per point: after a
// batch of dimensions each centre's partial distance is a lower bound on
// its final distance (squared distance only grows), while the partial
// distance of the currently best centre plus that centre's worst-case tail
// bounds the final best from above. Centres whose lower bound exceeds that
// upper bound can no longer win the point and are dropped from its
// candidate set, so later columns are visited for few (point, centre)
// pairs. The pruning is exact: assignments equal those of a naive
// implementation with the same seeding and tie-breaks.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"bond/internal/metric"
	"bond/internal/vstore"
)

// step is the number of dimensions accumulated between pruning attempts
// during assignment; tol stops the Lloyd iterations once the relative
// inertia improvement falls below it. Both are part of the WAL replay
// contract: a recluster record logs only (k, seed), so replay must run
// k-means with exactly these values to reproduce the logged layout.
// Changing either would silently corrupt recovery of existing logs.
const (
	step = 8
	tol  = 1e-4
)

// Options configures KMeans.
type Options struct {
	// K is the number of clusters. Required, ≥ 1.
	K int
	// MaxIters caps the Lloyd iterations. Default 25.
	MaxIters int
	// Seed drives the k-means++ style initialization.
	Seed int64
	// NoPrune disables the branch-and-bound assignment (for the ablation
	// benchmark); results are identical either way.
	NoPrune bool
}

// Result is a completed clustering.
type Result struct {
	// Assignments[i] is the centre index of vector i (−1 for deleted).
	Assignments []int
	// Centers are the final centroids.
	Centers [][]float64
	// Inertia is the total squared distance of points to their centres.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
	// ValuesScanned counts column cells read during assignment phases.
	ValuesScanned int64
}

// ErrBadOptions reports invalid clustering options.
var ErrBadOptions = errors.New("cluster: invalid options")

// Groups returns the live ids of each cluster, ascending within a group
// (assignments are scanned in id order) — the partition a cluster-aligned
// segment rewrite consumes. Deleted vectors (assignment −1) appear in no
// group. Clusters that ended empty yield empty groups.
func (r *Result) Groups() [][]int {
	groups := make([][]int, len(r.Centers))
	for id, c := range r.Assignments {
		if c >= 0 {
			groups[c] = append(groups[c], id)
		}
	}
	return groups
}

// KMeans clusters the live vectors of a decomposed store.
func KMeans(s *vstore.Store, opts Options) (Result, error) {
	if opts.K < 1 {
		return Result{}, fmt.Errorf("%w: K must be >= 1", ErrBadOptions)
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 25
	}
	if opts.MaxIters < 1 {
		return Result{}, fmt.Errorf("%w: MaxIters must be >= 1", ErrBadOptions)
	}
	live := s.LiveIDs()
	if len(live) == 0 {
		return Result{}, fmt.Errorf("%w: no live vectors", ErrBadOptions)
	}
	k := opts.K
	if k > len(live) {
		k = len(live)
	}
	// initCenters may stop short of k when the live points hold fewer than
	// k distinct coordinates; everything below sizes itself from the
	// centres actually seeded.

	// Per-dimension data extent: the worst-case remaining distance of a
	// centre is bounded by the farthest data corner, not the unit box, so
	// pruning stays exact for arbitrary value ranges.
	lo, hi := columnExtents(s, live)

	centers := initCenters(s, live, k, opts.Seed)
	res := Result{Assignments: make([]int, s.Len())}
	for i := range res.Assignments {
		res.Assignments[i] = -1
	}

	prevInertia := math.Inf(1)
	for iter := 0; iter < opts.MaxIters; iter++ {
		var inertia float64
		var scanned int64
		if opts.NoPrune {
			inertia, scanned = assignNaive(s, live, centers, res.Assignments)
		} else {
			inertia, scanned = assignPruned(s, live, centers, res.Assignments, lo, hi)
		}
		res.ValuesScanned += scanned
		res.Iters = iter + 1
		res.Inertia = inertia

		updateCenters(s, live, centers, res.Assignments)

		if !math.IsInf(prevInertia, 1) && prevInertia-inertia <= tol*math.Max(prevInertia, 1e-300) {
			break
		}
		prevInertia = inertia
	}
	res.Centers = centers
	return res, nil
}

// initCenters seeds with k-means++: the first centre uniform, each next
// centre drawn with probability proportional to the squared distance to
// the nearest centre chosen so far.
func initCenters(s *vstore.Store, live []int, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 0, k)
	first := live[rng.Intn(len(live))]
	centers = append(centers, s.Row(first))

	d2 := make([]float64, len(live))
	for i, id := range live {
		d2[i] = rowDist(s, id, centers[0])
	}
	for len(centers) < k {
		total := 0.0
		for _, d := range d2 {
			if !math.IsNaN(d) {
				total += d
			}
		}
		if total == 0 {
			// Every remaining point coincides with a centre already chosen
			// (duplicate points): any further centre would collapse onto an
			// existing one, leaving indistinguishable duplicates. Stop with
			// the distinct centres found.
			break
		}
		r := rng.Float64() * total
		acc := 0.0
		idx := len(live) - 1
		for i, d := range d2 {
			if math.IsNaN(d) {
				continue
			}
			acc += d
			if acc >= r {
				idx = i
				break
			}
		}
		chosen := live[idx]
		ctr := s.Row(chosen)
		centers = append(centers, ctr)
		for i, id := range live {
			if d := rowDist(s, id, ctr); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func rowDist(s *vstore.Store, id int, ctr []float64) float64 {
	sum := 0.0
	for d := 0; d < s.Dims(); d++ {
		diff := s.Column(d)[id] - ctr[d]
		sum += diff * diff
	}
	return sum
}

// assignNaive computes all point-centre distances column-wise without
// pruning and assigns each point to its nearest centre (ties toward the
// lower centre index).
func assignNaive(s *vstore.Store, live []int, centers [][]float64, out []int) (inertia float64, scanned int64) {
	k := len(centers)
	dist := make([]float64, len(live)*k)
	for d := 0; d < s.Dims(); d++ {
		col := s.Column(d)
		for c := 0; c < k; c++ {
			ctr := centers[c][d]
			for i, id := range live {
				diff := col[id] - ctr
				dist[i*k+c] += diff * diff
			}
		}
		scanned += int64(len(live) * k)
	}
	for i, id := range live {
		best, bestD := 0, dist[i*k]
		for c := 1; c < k; c++ {
			if d := dist[i*k+c]; d < bestD {
				best, bestD = c, d
			}
		}
		out[id] = best
		inertia += bestD
	}
	return inertia, scanned
}

// assignPruned is the BOND-style assignment: it processes dimensions in
// batches and, per point, drops centres whose best-case remaining distance
// (the Ev lower bound of Lemma 2, with the centre in the role of the
// query) cannot beat the current best centre's worst-case remaining
// distance (the Lemma 1 upper bound). Candidate centres per point are
// tracked in word-packed bitmasks. Pruning is exact because the Ev bounds
// are valid for any feasible tail, so assignments equal assignNaive's.
func assignPruned(s *vstore.Store, live []int, centers [][]float64, out []int, lo, hi []float64) (inertia float64, scanned int64) {
	k := len(centers)
	dims := s.Dims()
	dist := make([]float64, len(live)*k)

	// Per-point remaining mass T(v⁺), maintained exactly as BOND does.
	totals := s.Totals()
	pointTail := make([]float64, len(live))
	for i, id := range live {
		pointTail[i] = totals[id]
	}
	// Data-extent scaling: the metric.EucTail bounds assume coordinates in
	// [0,1]; clustering data already satisfies this for the paper's
	// workloads, and columnExtents lets callers detect violations. For
	// out-of-unit-box data the Lemma 1 bound is widened by the corner term.
	var extentSlack float64
	for d := 0; d < dims; d++ {
		if lo[d] < 0 || hi[d] > 1 {
			over := math.Max(0, hi[d]-1) + math.Max(0, -lo[d])
			extentSlack += (over + 1) * (over + 1)
		}
	}

	// Candidate masks: word-packed bitsets of width k per point.
	words := (k + 63) / 64
	masks := make([]uint64, len(live)*words)
	fullWord := ^uint64(0)
	for i := range masks {
		masks[i] = fullWord
	}
	if k%64 != 0 {
		lastMask := (uint64(1) << uint(k%64)) - 1
		for i := words - 1; i < len(masks); i += words {
			masks[i] &= lastMask
		}
	}

	for from := 0; from < dims; from += step {
		to := from + step
		if to > dims {
			to = dims
		}
		// Accumulate the batch for surviving (point, centre) pairs, and
		// maintain the point tails. Full mask words (no centre pruned yet
		// for this point) take a dense branch-free loop; sparse words fall
		// back to bit iteration.
		ctrCol := make([]float64, k)
		for d := from; d < to; d++ {
			col := s.Column(d)
			for c := 0; c < k; c++ {
				ctrCol[c] = centers[c][d]
			}
			for i, id := range live {
				v := col[id]
				pointTail[i] -= v
				base := i * words
				row := dist[i*k : i*k+k]
				for w := 0; w < words; w++ {
					m := masks[base+w]
					if m == 0 {
						continue
					}
					cLo := w * 64
					cHi := cLo + 64
					if cHi > k {
						cHi = k
					}
					if m == fullWord || (w == words-1 && bits.OnesCount64(m) == cHi-cLo) {
						for c := cLo; c < cHi; c++ {
							diff := v - ctrCol[c]
							row[c] += diff * diff
						}
						scanned += int64(cHi - cLo)
						continue
					}
					for m != 0 {
						bit := m & (-m)
						c := cLo + trailingZeros(bit)
						diff := v - ctrCol[c]
						row[c] += diff * diff
						scanned++
						m &^= bit
					}
				}
			}
		}
		if to >= dims || extentSlack > 0 {
			// Out-of-unit-box data: skip pruning, assignment stays exact
			// via the naive fallback of the final pass.
			if to >= dims {
				break
			}
			continue
		}
		// Per-centre Ev tail bounds over the remaining dimensions.
		tails := make([]*metric.EucTail, k)
		rem := make([]float64, dims-to)
		for c := 0; c < k; c++ {
			copy(rem, centers[c][to:])
			tails[c] = metric.NewEucTail(rem)
		}
		// Prune: centre c loses point i when even its best case cannot
		// beat the current best centre's worst case.
		for i := range live {
			base := i * words
			t := pointTail[i]
			bestC, bestD := -1, math.Inf(1)
			for w := 0; w < words; w++ {
				m := masks[base+w]
				for m != 0 {
					bit := m & (-m)
					c := w*64 + trailingZeros(bit)
					if d := dist[i*k+c]; d < bestD {
						bestC, bestD = c, d
					}
					m &^= bit
				}
			}
			if bestC < 0 {
				// Every candidate distance is NaN (NaN coefficients): no
				// bound is meaningful, so nothing can be pruned for this
				// point.
				continue
			}
			bound := bestD + tails[bestC].EvUpper(t)
			for w := 0; w < words; w++ {
				m := masks[base+w]
				for m != 0 {
					bit := m & (-m)
					c := w*64 + trailingZeros(bit)
					if c != bestC && dist[i*k+c]+tails[c].EvLower(t) > bound {
						masks[base+w] &^= bit
					}
					m &^= bit
				}
			}
		}
	}

	for i, id := range live {
		base := i * words
		bestC, bestD := -1, math.Inf(1)
		for w := 0; w < words; w++ {
			m := masks[base+w]
			for m != 0 {
				bit := m & (-m)
				c := w*64 + trailingZeros(bit)
				if d := dist[i*k+c]; d < bestD {
					bestC, bestD = c, d
				}
				m &^= bit
			}
		}
		if bestC < 0 {
			// All-NaN distances: fall back to centre 0, matching
			// assignNaive's default under the same input.
			bestC, bestD = 0, dist[i*k]
		}
		out[id] = bestC
		inertia += bestD
	}
	return inertia, scanned
}

// updateCenters recomputes centroids column-wise. Empty clusters keep
// their previous centre, and so does any centroid coordinate whose new
// mean comes out non-finite (a NaN coefficient in the data would
// otherwise poison the centre and, through it, every later distance).
func updateCenters(s *vstore.Store, live []int, centers [][]float64, assign []int) {
	k := len(centers)
	dims := s.Dims()
	counts := make([]int, k)
	for _, id := range live {
		if c := assign[id]; c >= 0 {
			counts[c]++
		}
	}
	sums := make([]float64, k*dims)
	for d := 0; d < dims; d++ {
		col := s.Column(d)
		for _, id := range live {
			if c := assign[id]; c >= 0 {
				sums[c*dims+d] += col[id]
			}
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for d := 0; d < dims; d++ {
			if m := sums[c*dims+d] * inv; !math.IsNaN(m) && !math.IsInf(m, 0) {
				centers[c][d] = m
			}
		}
	}
}

// columnExtents returns the per-dimension minimum and maximum over the
// live vectors.
func columnExtents(s *vstore.Store, live []int) (lo, hi []float64) {
	dims := s.Dims()
	lo = make([]float64, dims)
	hi = make([]float64, dims)
	for d := 0; d < dims; d++ {
		col := s.Column(d)
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, id := range live {
			v := col[id]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		lo[d], hi[d] = mn, mx
	}
	return lo, hi
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
