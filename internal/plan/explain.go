package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as the EXPLAIN output the CLI prints: the
// query shape, one line per planned segment with the chosen access path and predicted versus
// actual cost (in coefficient-equivalents: dense float cells, 8-bit cells
// weighted by VACodeCost/ComprCodeCost), and a summary. Before Execute the
// actual columns read "-"; after, they carry the measured costs, so
// predicted-vs-actual drift is visible at a glance. The kappa column is
// the κ a step met — the k-th best score the steps above it had
// established ("-": none yet). A step whose bound cannot beat it is
// skipped; a BOND step carries it into its pruning, which is why a late
// segment reads a fraction of what the first one did. A path of
// "bond/1pass" is a BOND segment read in one storage-order pass, because
// its synopsis proved that no pruning attempt could remove a row. Every
// segment has a line: the bounds the cursor did not need are finished
// here, if Execute has not run yet.
func (p *Plan) Explain() string {
	if p.segs != nil {
		p.materialize()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Query: k=%d criterion=%s strategy=%s segments=%d (%d slots × %d dims)\n",
		p.Opts.K, p.Opts.Criterion, p.Spec.Strategy, len(p.Steps), p.Slots, p.Dims)
	fmt.Fprintf(&b, "%4s  %-10s %8s %12s %12s %12s %12s %10s\n",
		"seg", "path", "n", "bound", "kappa", "predicted", "actual", "candidates")
	for i := range p.Steps {
		st := &p.Steps[i]
		bound := "-"
		if st.HasBound {
			bound = fmt.Sprintf("%.4f", st.Bound)
		}
		kappa := "-"
		if st.HasKappa {
			kappa = fmt.Sprintf("%.4f", st.Kappa)
		}
		path := st.Path.String()
		if st.OnePass {
			path += "/1pass"
		}
		actual := "-"
		cands := "-"
		switch {
		case st.Skipped:
			actual = "skipped"
			cands = "0"
		case st.Executed:
			actual = fmt.Sprintf("%.1f", st.ActualCost)
			cands = fmt.Sprintf("%d", st.Candidates)
		}
		fmt.Fprintf(&b, "%4d  %-10s %8d %12s %12s %12.1f %12s %10s\n",
			st.Segment, path, st.N, bound, kappa, st.PredCost, actual, cands)
	}
	searched, skipped := 0, 0
	for i := range p.Steps {
		if p.Steps[i].Skipped {
			skipped++
		} else if p.Steps[i].Executed {
			searched++
		}
	}
	fmt.Fprintf(&b, "Total: predicted=%.1f actual=%.1f searched=%d skipped=%d",
		p.PredictedCost(), p.ActualCost(), searched, skipped)
	if p.Truncated {
		b.WriteString(" (truncated: deadline)")
	}
	b.WriteString("\n")
	return b.String()
}
