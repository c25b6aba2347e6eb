// Package plan implements the cost-based query planner of the collection
// layer: one QuerySpec in, a Plan out — an ordered list of per-segment
// steps, each choosing an access path from the segment's synopsis and
// fixed per-path cost priors — and one executor that runs the plan
// through the shared engine primitives of package core.
//
// The paper's central claim is that the decomposed storage engine itself
// is the index; the planner is the piece that makes that operational. A
// vertically decomposed system (the paper's Section 6 targets MonetDB)
// routes every query through a planner that picks operators from
// statistics. Here the statistics are the per-segment min/max synopses
// of the segmented store: they order the segments, skip the hopeless ones
// and scale each BOND prediction, and the κ the executor carries from
// segment to segment prunes inside the rest. A plan is a function of the
// collection and the query alone; no execution changes the next one.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/vafile"
	"bond/internal/vstore"
)

// Strategy selects how the planner assigns access paths.
type Strategy int

const (
	// Auto picks the path per segment by predicted cost — the default. At
	// the fixed priors that is BOND on every segment (see choosePath), the
	// same plan ForceBOND makes.
	Auto Strategy = iota
	// ForceBOND runs plain BOND on every segment.
	ForceBOND
	// ForceCompressed runs the 8-bit filter-and-refine path on every
	// sealed segment (exact scan on the active one).
	ForceCompressed
	// ForceVAFile runs the VA-File filter on every sealed segment (exact
	// scan on the active one).
	ForceVAFile
	// ForceExact runs a full exact scan on every segment — the seqscan
	// oracle as an access path.
	ForceExact
)

// String names the strategy as the CLI spells it.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ForceBOND:
		return "bond"
	case ForceCompressed:
		return "compressed"
	case ForceVAFile:
		return "vafile"
	case ForceExact:
		return "exact"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy parses a strategy name: one of the five String returns,
// in any case, or "" for Auto.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return Auto, nil
	case "bond":
		return ForceBOND, nil
	case "compressed":
		return ForceCompressed, nil
	case "vafile":
		return ForceVAFile, nil
	case "exact":
		return ForceExact, nil
	}
	return Auto, fmt.Errorf("plan: unknown strategy %q (want auto, bond, compressed, vafile, or exact)", s)
}

// Spec is the single query description every search entry point reduces
// to: what to search for, how exact the answer must be, and optional
// hints. The zero value plus Query and K is a sensible default.
type Spec struct {
	// Query is the query vector. Required.
	Query []float64
	// K is the number of neighbors. Required, ≥ 1.
	K int
	// Criterion selects metric and pruning rule (core.Hq default).
	Criterion core.Criterion
	// Order selects the dimension processing order for BOND paths.
	Order core.Order
	// Step is the pruning granularity m (0 = default).
	Step int
	// Weights enables weighted search; zero weights exclude dimensions.
	Weights []float64
	// Dims restricts the search to a dimensional subspace.
	Dims []int
	// Exclude removes vectors from consideration before the search starts.
	Exclude *bitmap.Bitmap

	// Strategy forces an access path; Auto selects per segment by cost.
	Strategy Strategy
	// Tolerance relaxes the comparison with the running k-th best score
	// κ: a segment — or, on the BOND path, a candidate inside one — that
	// cannot improve κ by more than Tolerance is dropped even though it
	// might tie or marginally beat it. Reported scores stay exact and the
	// k-th is within Tolerance of the true one. 0 keeps answers exact.
	Tolerance float64
	// Deadline stops the executor from starting further segments once
	// passed (zero = none). The merged answer over the segments searched
	// so far is returned with Plan.Truncated set.
	Deadline time.Time
}

// options lowers the spec onto the core engine options.
func (s Spec) options() core.Options {
	return core.Options{
		K:         s.K,
		Criterion: s.Criterion,
		Order:     s.Order,
		Step:      s.Step,
		Weights:   s.Weights,
		Dims:      s.Dims,
		Exclude:   s.Exclude,
	}
}

// Segment is one physical segment as the planner sees it: the engine view
// plus the access-path providers only sealed segments can offer. Codes
// and VA are invoked lazily, only when the executor actually runs that
// path on the segment, so skipped segments are never encoded.
type Segment struct {
	View core.SegmentView
	// Sealed marks immutable segments, the only ones whose codes may be
	// cached and therefore the only ones eligible for the compressed and
	// VA-File paths.
	Sealed bool
	// Codes returns the segment's 8-bit column codes (nil if unavailable).
	Codes func() *vstore.QuantStore
	// VA returns the segment's row-major VA-File (nil if unavailable).
	VA func() *vafile.File

	// sealedRun is kept on a list's first segment: the shape of the list's
	// leading run of sealed segments, filled by the first plan over the
	// list (see sealedShape).
	sealedRun atomic.Pointer[core.Shape]
}

// WrapViews lifts bare segment views into planner segments with no
// compressed access paths — all a snapshot offers.
func WrapViews(views []core.SegmentView) []Segment {
	out := make([]Segment, len(views))
	for i, v := range views {
		out[i] = Segment{View: v}
	}
	return out
}
