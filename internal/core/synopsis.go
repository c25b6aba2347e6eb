package core

import "math"

// Synopsis is a compact, serializable summary of one segment's
// per-dimension min/max synopsis — the segment-level statistics a serving
// layer exposes without shipping dims×2 floats per segment. MinVal and
// MaxVal bound every coefficient in the segment; MassLo and MassHi bound
// the total mass Σ_d v_d of any member, which is what the histogram
// criteria prune against.
type Synopsis struct {
	MinVal float64 `json:"min_val"`
	MaxVal float64 `json:"max_val"`
	MassLo float64 `json:"mass_lo"`
	MassHi float64 `json:"mass_hi"`
}

// SynopsisSpread measures how loose a segment layout's synopses are: the
// size-weighted mean, over the given views, of the mean per-dimension
// width of each segment's [lo, hi] synopsis relative to the collection's
// global extent in that dimension. A value near 1 means every segment
// spans nearly the whole data extent in every dimension (a shuffled
// ingest order — synopsis-based skipping cannot fire), while a value
// near 0 means segments are tight (cluster-contiguous — most segments
// are skippable once κ is established). Dimensions with a degenerate
// global extent contribute zero width.
//
// A single view trivially measures 1 (its extent is the global extent),
// so callers deciding whether a rewrite could help should require at
// least two views. ok is false when no view carries a usable synopsis.
func SynopsisSpread(views []SegmentView) (float64, bool) {
	if len(views) == 0 {
		return 0, false
	}
	dims := views[0].Src.Dims()
	glo := make([]float64, dims)
	ghi := make([]float64, dims)
	for d := range glo {
		glo[d], ghi[d] = math.Inf(1), math.Inf(-1)
	}
	usable := 0
	for _, v := range views {
		if v.Lo == nil || v.Src.Len() == 0 {
			continue
		}
		usable++
		for d := 0; d < dims; d++ {
			glo[d] = math.Min(glo[d], v.Lo[d])
			ghi[d] = math.Max(ghi[d], v.Hi[d])
		}
	}
	if usable == 0 {
		return 0, false
	}
	var weighted, weight float64
	for _, v := range views {
		if v.Lo == nil || v.Src.Len() == 0 {
			continue
		}
		var spread float64
		measured := 0
		for d := 0; d < dims; d++ {
			span := ghi[d] - glo[d]
			if span <= 0 || math.IsInf(span, 1) {
				continue
			}
			spread += (v.Hi[d] - v.Lo[d]) / span
			measured++
		}
		if measured == 0 {
			continue
		}
		w := float64(v.Src.Len())
		weighted += w * spread / float64(measured)
		weight += w
	}
	if weight == 0 {
		return 0, false
	}
	return weighted / weight, true
}

// SummarizeSynopsis reduces a segment view's per-dimension synopsis to a
// Synopsis. ok is false when the view carries no usable synopsis (nil
// Lo/Hi, empty segment, or a dimension with no observed data), in
// which case callers should report the segment as unsummarized rather
// than serve ±Inf, which JSON cannot carry.
func SummarizeSynopsis(v SegmentView) (Synopsis, bool) {
	if v.Lo == nil || v.Src.Len() == 0 {
		return Synopsis{}, false
	}
	s := Synopsis{MinVal: math.Inf(1), MaxVal: math.Inf(-1)}
	for d, lo := range v.Lo {
		hi := v.Hi[d]
		if math.IsInf(lo, 1) { // no data observed for this dimension
			return Synopsis{}, false
		}
		s.MinVal = math.Min(s.MinVal, lo)
		s.MaxVal = math.Max(s.MaxVal, hi)
		s.MassLo += lo
		s.MassHi += hi
	}
	return s, true
}
