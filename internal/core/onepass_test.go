package core_test

import (
	"math"
	"math/rand"
	"testing"

	"bond/internal/core"
)

// TestOnePassBoundAdversarial drives the synopsis futility bound with
// adversarial values — q at 0, −0, 1 and outside the box and the unit
// interval, boxes with Lo == Hi, at the cube's faces and tight around q,
// weights from 1e-200 to 1e200 beside zeros and subspaces — and checks the
// two facts OnePass rests on, bit for bit: the smallest single-dimension
// term less the slack is at most every tail constant a pruning attempt adds
// to its local κ; and wherever U is at most that term (farBound ran to the
// end), U + slack is at least every float partial distance a row inside the
// box can reach, in any processing order, as the run kernels sum it.
func TestOnePassBoundAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{0, math.Copysign(0, -1), 1, 0.5, -0.25, 1.75}
	extreme := []float64{0, 1e-200, 1e-8, 1, 3, 1e8, 1e200}
	complete := 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		dims := 1 + rng.Intn(24)
		tight := trial%2 == 0 // every box at or around the point of the cube nearest q
		q, lo, hi := make([]float64, dims), make([]float64, dims), make([]float64, dims)
		for d := range q {
			q[d] = rng.Float64()
			if rng.Intn(2) == 0 {
				q[d] = special[rng.Intn(len(special))]
			}
			a, b := rng.Float64(), rng.Float64()
			switch kind := rng.Intn(3); {
			case tight && kind == 0:
				a = min(max(q[d], 0), 1)
				b = a
			case tight:
				a = min(max(q[d]-1e-3*a, 0), 1)
				b = min(max(q[d]+1e-3*b, 0), 1)
			case kind == 0: // a single value
				b = a
			case kind == 1: // a face of the cube
				a = float64(rng.Intn(2))
				b = a
			}
			lo[d], hi[d] = min(a, b), max(a, b)
		}
		opts := core.Options{K: 1, Criterion: core.Eq, Order: core.Order(rng.Intn(4)), Seed: int64(trial)}
		switch rng.Intn(3) {
		case 1:
			opts.Weights = make([]float64, dims)
			for d := range opts.Weights {
				opts.Weights[d] = extreme[rng.Intn(len(extreme))]
			}
		case 2:
			opts.Dims = rng.Perm(dims)[:1+rng.Intn(dims)]
		}
		ds := effectiveDims(dims, opts)
		if len(ds) == 0 {
			continue
		}
		// The floor and slack are the query's: a box that is the point q
		// gives U = 0, so farBound runs to the end.
		_, floor, slack := core.FarBound(&core.SegmentView{Lo: q, Hi: q}, q, opts.Weights, ds, math.Inf(1))
		var qs core.Query
		qs.Init(q, opts)
		for i, c := range core.TailConsts(&qs) {
			if floor-slack > c {
				t.Fatalf("trial %d: floor %v − slack %v exceeds the tail constant %v after %d of %d dimensions",
					trial, floor, slack, c, i+1, len(ds))
			}
		}

		u, _, _ := core.FarBound(&core.SegmentView{Lo: lo, Hi: hi}, q, opts.Weights, ds, math.Inf(1))
		if !(u <= floor) {
			continue // stopped early, or U already past the floor: OnePass is false
		}
		complete++
		reach := u + slack

		row := make([]float64, dims)
		for r := 0; r < 6; r++ {
			for d := range row {
				switch {
				case r == 0: // the far corner: every term at its largest
					row[d] = lo[d]
					if hi[d]-q[d] > q[d]-lo[d] {
						row[d] = hi[d]
					}
				case r == 1:
					row[d] = min(max(q[d], lo[d]), hi[d])
				default:
					row[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
				}
			}
			for o := 0; o < 4; o++ {
				s := 0.0
				for _, i := range rng.Perm(len(ds)) {
					d := ds[i]
					diff := row[d] - q[d]
					if len(opts.Weights) == 0 {
						s += diff * diff
					} else {
						s += opts.Weights[d] * diff * diff
					}
					if !(s <= reach) {
						t.Fatalf("trial %d: partial distance %v exceeds U + slack = %v (q %v, lo %v, hi %v, w %v)",
							trial, s, reach, q, lo, hi, opts.Weights)
					}
				}
			}
		}
	}
	if complete < trials/10 {
		t.Fatalf("only %d of %d trials reached a bound OnePass could rest on", complete, trials)
	}
	t.Logf("%d of %d trials checked", complete, trials)
}

// TestOnePassScope: the rule speaks for Eq only, and not under
// NormalizedData, whose tail constant has no single-term floor.
func TestOnePassScope(t *testing.T) {
	v := core.SegmentView{Lo: []float64{0.5, 0.5}, Hi: []float64{0.5, 0.5}}
	q := []float64{0.5, 0.5}
	ds := []int32{0, 1}
	if !core.OnePass(&v, q, &core.Options{Criterion: core.Eq}, ds, 0, false) {
		t.Fatal("Eq on a point segment at the query: want one pass")
	}
	if core.OnePass(&v, q, &core.Options{Criterion: core.Eq}, ds, -1, true) {
		t.Fatal("a carried κ below every distance must leave the pruning on")
	}
	for _, opts := range []core.Options{{Criterion: core.Ev}, {Criterion: core.Hq}, {Criterion: core.Hh}, {Criterion: core.Eq, NormalizedData: true}} {
		if core.OnePass(&v, q, &opts, ds, 0, false) {
			t.Errorf("%v (normalized %v): want no one-pass decision", opts.Criterion, opts.NormalizedData)
		}
	}
}
