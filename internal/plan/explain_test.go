package plan

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bond/internal/core"
	"bond/internal/vstore"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden EXPLAIN files")

// TestExplainGolden pins the EXPLAIN output — chosen per-segment paths,
// predictions, carried κ, actual costs, and skips — for three segment
// layouts: cluster-contiguous (synopsis skipping dominates), uniform (no
// skipping; the carried κ does the pruning), and skewed (BOND prunes fast).
// The data is generated from fixed seeds and the cost priors are
// constants, so the output is fully deterministic. The plan gets the moments
// of the sealed segments, as a collection's query does. Regenerate with:
// go test ./internal/plan/ -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		store *vstore.SegStore
	}{
		{
			name:  "cluster_contiguous_hq",
			store: clusterContiguous(5, 100, 16, 11),
			spec:  Spec{K: 5, Criterion: core.Hq},
		},
		{
			name:  "uniform_eq",
			store: uniformStore(500, 100, 16, 12),
			spec:  Spec{K: 5, Criterion: core.Eq},
		},
		{
			name:  "skewed_hq",
			store: skewedStore(500, 100, 16, 13),
			spec:  Spec{K: 5, Criterion: core.Hq},
		},
		{
			// Mixed predictions: the query's home segment has no synopsis
			// help (bound 0) and predicts the full bondFrac; far clusters
			// predict cheap BOND via the shape factor.
			name:  "cluster_contiguous_eq_mixed",
			store: clusterContiguous(5, 100, 32, 14),
			spec:  Spec{K: 5, Criterion: core.Eq},
		},
		{
			// Forced BOND: the kappa column shows the first step starting
			// without a carried κ and every later one with the k-th best
			// so far, reading fewer cells for it.
			name:  "uniform_eq_bond",
			store: uniformStore(500, 100, 16, 12),
			spec:  Spec{K: 5, Criterion: core.Eq, Strategy: ForceBOND},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Query = tc.store.Row(0)
			segs := segmentsOf(tc.store)
			p, err := New(segs, sealedMoments(segs), tc.spec, new(Pool))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(p); err != nil {
				t.Fatal(err)
			}
			got := p.Explain()
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from golden %s.\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// sealedMoments is the moments of the sealed segments' rows.
func sealedMoments(segs []Segment) *core.Moments {
	var sums core.MomentSums
	for i := range segs {
		if segs[i].Sealed {
			sums.Add(segs[i].View.Src)
		}
	}
	return sums.Moments()
}
