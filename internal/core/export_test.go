package core

// SetCarryDisabled makes every search ignore its carried κ (true) or use it
// again (false), so tests can measure what the carry saves.
func SetCarryDisabled(off bool) { carryDisabled = off }

// KfetchCap is the capacity of the kfetch buffer sc keeps between searches.
func KfetchCap(sc *Scratch) int { return cap(sc.kbuf) }

// SetDenseDisabled makes every search start in the list phase (true) or
// choose its first phase by the live fraction again (false), so tests can
// hold the dense phase to the bits of the list path.
func SetDenseDisabled(off bool) { denseDisabled = off }

// FarBound is farBound: U, the smallest single-dimension tail term and
// the rounding slack OnePass compares, up to where it stopped.
var FarBound = farBound

// TailConsts returns the tail constant a pruning attempt after p processed
// dimensions adds to its local κ, for every p strictly inside qs's
// processing order.
func TailConsts(qs *Query) []float64 {
	var out []float64
	for p := 1; p < len(qs.order); p++ {
		out = append(out, qs.bound(p).c)
	}
	return out
}
