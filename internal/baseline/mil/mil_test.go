package mil

import (
	"errors"
	"math"
	"testing"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/seqscan"
	"bond/internal/topk"
	"bond/internal/vstore"
)

var corelFixture struct {
	vectors [][]float64
	store   *vstore.Store
}

func corel(t *testing.T) ([][]float64, *vstore.Store) {
	t.Helper()
	if corelFixture.store == nil {
		corelFixture.vectors = dataset.CorelLike(2000, 64, 1234)
		corelFixture.store = vstore.FromVectors(corelFixture.vectors)
	}
	return corelFixture.vectors, corelFixture.store
}

// sameResults checks rank-by-rank equality of two result lists. Scores must
// agree within tolerance at every rank. IDs must agree except at ranks whose
// score is tied with another rank in the reference: MIL accumulates in a
// different dimension order than the scan, so last-ulp rounding may break
// exact ties differently — any tie-equivalent id is acceptable there.
func sameResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	const eps = 1e-9
	tied := func(i int) bool {
		return (i > 0 && math.Abs(want[i].Score-want[i-1].Score) <= eps) ||
			(i+1 < len(want) && math.Abs(want[i].Score-want[i+1].Score) <= eps)
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > eps {
			t.Errorf("%s: rank %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
		if got[i].ID != want[i].ID && !tied(i) {
			t.Errorf("%s: rank %d = id %d, want id %d (scores %v vs %v)",
				label, i, got[i].ID, want[i].ID, got[i].Score, want[i].Score)
		}
	}
}

func TestMILMatchesSequentialScan(t *testing.T) {
	vs, store := corel(t)
	queries, _ := dataset.SampleQueries(vs, 5, 55)
	for _, q := range queries {
		res, err := SearchMIL(store, q, MILOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := seqscan.SearchHistogram(vs, q, 10)
		sameResults(t, "MIL", res.Results, want)
	}
}

func TestMILMatchesArrayEngine(t *testing.T) {
	vs, store := corel(t)
	q := vs[3]
	mil, err := SearchMIL(store, q, MILOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := core.Search(store, q, core.Options{K: 10, Criterion: core.Hq})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "MIL vs array", mil.Results, arr.Results)
}

func TestMILBitmapSwitchSettings(t *testing.T) {
	vs, store := corel(t)
	q := vs[9]
	want, _ := seqscan.SearchHistogram(vs, q, 10)
	// Immediate materialization, default, and bitmap-until-end must all be
	// correct (the switch point is a physical-plan choice only).
	for _, sw := range []float64{1e-9, 0.05, 0.5, 1} {
		res, err := SearchMIL(store, q, MILOptions{K: 10, BitmapSwitch: sw})
		if err != nil {
			t.Fatalf("switch %v: %v", sw, err)
		}
		sameResults(t, "MIL switch", res.Results, want)
	}
}

func TestMILRespectsDeletesAndExclude(t *testing.T) {
	vs := dataset.CorelLike(150, 32, 21)
	store := vstore.FromVectors(vs)
	q := vs[0]
	store.Delete(0)
	excl := bitmap.New(150)
	excl.Set(1)
	res, err := SearchMIL(store, q, MILOptions{K: 5, Exclude: excl})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.ID == 0 || r.ID == 1 {
			t.Errorf("deleted/excluded id %d returned", r.ID)
		}
	}
}

func TestMILErrors(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 2)
	store := vstore.FromVectors(vs)
	if _, err := SearchMIL(store, vs[0], MILOptions{K: 0}); !errors.Is(err, ErrMILOptions) {
		t.Errorf("K=0: %v", err)
	}
	if _, err := SearchMIL(store, vs[0][:2], MILOptions{K: 1}); !errors.Is(err, core.ErrQueryMismatch) {
		t.Errorf("short query: %v", err)
	}
	if _, err := SearchMIL(store, vs[0], MILOptions{K: 1, BitmapSwitch: 2}); !errors.Is(err, ErrMILOptions) {
		t.Errorf("bad switch: %v", err)
	}
	excl := bitmap.NewFull(10)
	if _, err := SearchMIL(store, vs[0], MILOptions{K: 1, Exclude: excl}); !errors.Is(err, core.ErrNoCandidates) {
		t.Errorf("all excluded: %v", err)
	}
}
