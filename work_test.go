package bond

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bond/internal/dataset"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.golden")

// TestWorkGolden pins BOND's work, not only its answers: for every query
// of a fixed grid it compares one line — the result ids with their score
// bits, and every Stats field, the step log included — with
// testdata/work.golden. A change to the engine that claims to keep the
// work it does (a reordered prune step, a merged kernel) must leave every
// line as it is; one that prunes differently, switches phases elsewhere or
// reads other cells shows here as a diff.
//
// The grid: three small layouts (uniform, Corel-like histograms and
// cluster-contiguous segments), each with deletes — one segment mostly
// deleted, so it starts in the list phase — and an active segment; Hq, Hh,
// Eq and Ev, each plain, weighted (not Hh) and subspace; k 1, 10 and 50;
// three queries, every other one under an exclusion. Every spec runs
// through Query and, all of a layout's specs at once, through QueryBatch,
// and both must render the golden line. Regenerate with:
// go test -run TestWorkGolden -update .
func TestWorkGolden(t *testing.T) {
	var got bytes.Buffer
	for _, layout := range []string{"uniform", "corel", "clustered"} {
		specs, names, col := workGrid(t, layout)
		batch, err := col.QueryBatch(specs)
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		for i, spec := range specs {
			res, err := col.Query(spec)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			line := workLine(names[i], res)
			if b := workLine(names[i], batch[i]); b != line {
				t.Fatalf("QueryBatch differs from Query:\n batch %s\n query %s", b, line)
			}
			got.WriteString(line)
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "work.golden")
	if *updateWork {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := bufio.NewScanner(&got), bufio.NewScanner(bytes.NewReader(want))
	g.Buffer(nil, 1<<20)
	w.Buffer(nil, 1<<20)
	for line := 1; ; line++ {
		gok, wok := g.Scan(), w.Scan()
		if !gok && !wok {
			break
		}
		if g.Text() != w.Text() {
			t.Fatalf("work.golden line %d differs:\n got  %s\n want %s", line, g.Text(), w.Text())
		}
	}
	t.Fatal("work.golden differs")
}

// workGrid builds one layout's collection — 1 600 vectors of 32 dims in
// segments of 250, so six sealed segments and an active one of 100 — and
// the specs run against it, named as the golden lines name them.
func workGrid(t *testing.T, layout string) ([]QuerySpec, []string, *Collection) {
	const n, dims, segSize = 1600, 32, 250
	var vs [][]float64
	switch layout {
	case "uniform":
		vs = dataset.Uniform(n, dims, 71)
	case "corel":
		vs = dataset.CorelLike(n, dims, 72)
	case "clustered":
		vs = layoutRows(rand.New(rand.NewSource(73)), "clustered", n, dims, segSize)
	}
	col := NewCollectionSegmented(vs, segSize)
	// Segment 1 keeps one row in five: below half live, it starts in the
	// list phase. Every 13th row elsewhere goes too.
	for id := 0; id < n; id++ {
		if id >= segSize && id < 2*segSize && id%5 != 0 || id%13 == 6 {
			deleteIDs(t, col, id)
		}
	}
	excl := col.NewExclusion()
	for id := 3; id < n; id += 11 {
		excl.Set(id)
	}
	weights := dataset.WeightsZipf(dims, 1, 74)
	weights[3] = 0
	subspace := []int{17, 2, 30, 9, 11, 4, 25, 0, 13, 21, 6, 28}
	queries, _ := dataset.SampleQueries(vs, 3, 75)

	var specs []QuerySpec
	var names []string
	for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
		for _, variant := range []string{"plain", "weighted", "dims"} {
			if crit == Hh && variant == "weighted" {
				continue // Hh takes no weights
			}
			for _, k := range []int{1, 10, 50} {
				for qi, q := range queries {
					spec := QuerySpec{Query: q, K: k, Criterion: crit, Strategy: StrategyBOND}
					switch variant {
					case "weighted":
						spec.Weights = weights
					case "dims":
						spec.Dims = subspace
					}
					if qi%2 == 1 {
						spec.Exclude = excl
					}
					specs = append(specs, spec)
					names = append(names, fmt.Sprintf("%s %v/%s k=%d q=%d", layout, crit, variant, k, qi))
				}
			}
		}
	}
	return specs, names, col
}

// workLine renders one answer: id:score-bits per result, then the Stats
// counters, then the step log as segment:dims:candidates:pruned, with an
// s suffix on a step skipped as futile.
func workLine(name string, res QueryResult) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(" |")
	for _, r := range res.Results {
		fmt.Fprintf(&b, " %d:%x", r.ID, math.Float64bits(r.Score))
	}
	st := res.Stats
	fmt.Fprintf(&b, " | cells=%d untilK=%d final=%d searched=%d skipped=%d trunc=%v |",
		st.ValuesScanned, st.DimsUntilK, st.FinalCandidates, st.SegmentsSearched, st.SegmentsSkipped, res.Truncated)
	for _, s := range st.Steps {
		fmt.Fprintf(&b, " %d:%d:%d:%d", s.Segment, s.DimsProcessed, s.Candidates, s.Pruned)
		if s.Skipped {
			b.WriteByte('s')
		}
	}
	return b.String()
}
