package core

import (
	"testing"

	"bond/internal/dataset"
	"bond/internal/quant"
	"bond/internal/seqscan"
	"bond/internal/vstore"
)

// searchCompressed validates the way the planner does — shape, then the
// compressed-path restrictions — and runs the single-segment primitive.
func searchCompressed(s Source, qs *vstore.QuantStore, q []float64, opts Options) (CompressedResult, error) {
	view := SegmentView{Src: s}
	if err := ValidateSegments(Shape{}, 1, func(int) *SegmentView { return &view }, q, &opts); err != nil {
		return CompressedResult{}, err
	}
	if err := ValidateCompressed(opts); err != nil {
		return CompressedResult{}, err
	}
	res, empty := SearchCompressedOneScratch(s, qs, q, opts, nil)
	if empty {
		return CompressedResult{}, ErrNoCandidates
	}
	return res, nil
}

func TestCompressedMatchesExactHistogram(t *testing.T) {
	vs, store := corel(t)
	qs := store.Quantize(quant.NewUnit())
	queries, _ := dataset.SampleQueries(vs, 5, 17)
	for _, q := range queries {
		res, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Hq})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := seqscan.SearchHistogram(vs, q, 10)
		sameResults(t, "compressed Hq", res.Results, want)
		if res.FilterCandidates < 10 {
			t.Errorf("filter kept %d < k candidates", res.FilterCandidates)
		}
	}
}

func TestCompressedMatchesExactEuclidean(t *testing.T) {
	vs, store := corel(t)
	qs := store.Quantize(quant.NewUnit())
	queries, _ := dataset.SampleQueries(vs, 5, 18)
	for _, q := range queries {
		res, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Eq, NormalizedData: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := seqscan.SearchEuclidean(vs, q, 10)
		sameResults(t, "compressed Eq", res.Results, want)
	}
}

func TestCompressedFilterPrunes(t *testing.T) {
	vs, store := corel(t)
	qs := store.Quantize(quant.NewUnit())
	q := vs[31]
	res, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9: pruning on compressed fragments follows a similar trend to
	// the exact fragments. Demand a substantial reduction.
	if res.FilterCandidates > len(vs)/4 {
		t.Errorf("filter kept %d of %d candidates", res.FilterCandidates, len(vs))
	}
	// Refinement must touch far less data than a full scan.
	full := int64(len(vs) * store.Dims())
	if res.RefineValuesScanned >= full {
		t.Errorf("refinement scanned %d ≥ full scan %d", res.RefineValuesScanned, full)
	}
}

func TestCompressedRejectsUnsupportedOptions(t *testing.T) {
	vs, store := corel(t)
	qs := store.Quantize(quant.NewUnit())
	q := vs[0]
	if _, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Hh}); err == nil {
		t.Error("Hh must be rejected for compressed search")
	}
	if _, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Ev}); err == nil {
		t.Error("Ev must be rejected for compressed search")
	}
	w := make([]float64, store.Dims())
	for i := range w {
		w[i] = 1
	}
	if _, err := searchCompressed(store, qs, q, Options{K: 10, Criterion: Eq, Weights: w}); err == nil {
		t.Error("weights must be rejected for compressed search")
	}
	if _, err := searchCompressed(store, qs, q, Options{K: 0, Criterion: Hq}); err == nil {
		t.Error("K=0 must be rejected")
	}
}

func TestCompressedCoarseQuantizerStillExact(t *testing.T) {
	// Even a brutal 4-level quantizer must not cause false dismissals —
	// the filter just keeps more candidates.
	vs, store := corel(t)
	coarse := store.Quantize(quant.New(0, 1, 4))
	fine := store.Quantize(quant.NewUnit())
	q := vs[12]
	rc, err := searchCompressed(store, coarse, q, Options{K: 5, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := searchCompressed(store, fine, q, Options{K: 5, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seqscan.SearchHistogram(vs, q, 5)
	sameResults(t, "coarse", rc.Results, want)
	sameResults(t, "fine", rf.Results, want)
	if rc.FilterCandidates < rf.FilterCandidates {
		t.Errorf("coarse filter kept %d < fine filter %d", rc.FilterCandidates, rf.FilterCandidates)
	}
}
