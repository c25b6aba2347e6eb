package core

import (
	"errors"
	"testing"
)

func TestProgressiveMatchesSearch(t *testing.T) {
	vs, store := corel(t)
	q := vs[13]
	for _, crit := range []Criterion{Hq, Hh, Ev} {
		p, err := NewProgressive([]SegmentView{{Src: store}}, q, Options{K: 10, Criterion: crit})
		if err != nil {
			t.Fatal(err)
		}
		res := p.Finish()
		want, err := Search(store, q, Options{K: 10, Criterion: crit})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "progressive "+crit.String(), res.Results, want.Results)
		if res.Stats.ValuesScanned != want.Stats.ValuesScanned {
			t.Errorf("%v: progressive scanned %d, search %d",
				crit, res.Stats.ValuesScanned, want.Stats.ValuesScanned)
		}
	}
}

func TestProgressiveStepwiseInspection(t *testing.T) {
	vs, store := corel(t)
	p, err := NewProgressive([]SegmentView{{Src: store}}, vs[2], Options{K: 5, Criterion: Hq, Step: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.DimsProcessed() != 0 || p.DimsTotal() != store.Dims() {
		t.Fatalf("initial state: %d/%d", p.DimsProcessed(), p.DimsTotal())
	}
	prevCands := store.Len() + 1
	steps := 0
	for p.Step() {
		steps++
		if p.DimsProcessed()%8 != 0 && p.DimsProcessed() != p.DimsTotal() {
			t.Fatalf("DimsProcessed = %d, want multiple of 8", p.DimsProcessed())
		}
		if p.NumCandidates() > prevCands {
			t.Fatal("candidates grew between steps")
		}
		prevCands = p.NumCandidates()
		if got := p.Candidates(); len(got) != p.NumCandidates() {
			t.Fatal("Candidates length mismatch")
		}
	}
	if steps == 0 {
		t.Fatal("no steps executed")
	}
	// After exhaustion Step stays false and Finish is idempotent.
	if p.Step() {
		t.Error("Step returned true after exhaustion")
	}
	res := p.Finish()
	if len(res.Results) != 5 {
		t.Errorf("final results = %d", len(res.Results))
	}
}

func TestProgressiveEarlyPreview(t *testing.T) {
	vs, store := corel(t)
	p, err := NewProgressive([]SegmentView{{Src: store}}, vs[4], Options{K: 5, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	p.Step() // one batch only
	preview := p.CurrentBest()
	if len(preview) != 5 {
		t.Fatalf("preview size %d", len(preview))
	}
	// The preview is approximate but must rank the query itself first
	// (its partial score dominates every other partial score).
	if preview[0].ID != 4 {
		t.Errorf("preview best = %d, want the query itself", preview[0].ID)
	}
}

func TestProgressiveInvalidOptions(t *testing.T) {
	vs, store := corel(t)
	if _, err := NewProgressive([]SegmentView{{Src: store}}, vs[0], Options{K: 0, Criterion: Hq}); !errors.Is(err, ErrBadK) {
		t.Errorf("err = %v", err)
	}
}
