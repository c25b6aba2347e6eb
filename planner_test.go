package bond

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bond/internal/plan"
	"bond/internal/vstore"
)

// TestQueryExplainReportsActuals pins the query-result contract the
// planner relies on: forcing each strategy through QueryExplain yields a
// plan whose executed steps report actual costs, and the explain text is
// non-empty before and after execution.
func TestQueryExplainReportsActuals(t *testing.T) {
	vectors := layoutRows(rand.New(rand.NewSource(4)), "uniform", 400, 10, 100)
	col := NewCollectionSegmented(vectors, 100)
	res, p, err := col.QueryExplain(QuerySpec{Query: vectors[0], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results", len(res.Results))
	}
	executed := 0
	for _, st := range p.Steps {
		if st.Executed {
			executed++
			if st.ActualCost <= 0 {
				t.Errorf("segment %d executed with actual cost %v", st.Segment, st.ActualCost)
			}
		}
	}
	if executed == 0 {
		t.Fatal("no step executed")
	}
	if p.Explain() == "" {
		t.Fatal("empty explain")
	}
}

// olderStatsBlock is the planner statistics block as releases that kept
// learned time coefficients wrote it into MANIFESTs and snapshot files:
// thirteen keys, five selectivities and a query count among them.
const olderStatsBlock = `{"queries":1,"bond_frac":0.46,"compr_filter_frac":0.6,"compr_survive":0.05,"va_survive":0.044,` +
	`"bond_ns_per_cell":2.9,"compr_ns_per_cell":3,"va_ns_per_cell":3,"exact_ns_per_cell":3,` +
	`"bond_ns_per_cell_mapped":3,"compr_ns_per_cell_mapped":3,"va_ns_per_cell_mapped":3.2,"exact_ns_per_cell_mapped":3}`

// withStatsBlock returns a copy of a CRC32-trailed MANIFEST image whose
// statistics block (a 4-byte length field at byte 52) is empty, with
// block spliced in and the trailer recomputed.
func withStatsBlock(img []byte, at, width int, block []byte) []byte {
	out := append([]byte(nil), img[:at]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(block)))[:at+width]
	out = append(out, block...)
	out = append(out, img[at+width:len(img)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// assertSamePlans runs the same queries on a and b and holds them to
// byte-identical EXPLAIN text and bit-identical answers.
func assertSamePlans(t *testing.T, a, b *Collection, vectors [][]float64) {
	t.Helper()
	for i, crit := range []Criterion{Eq, Hq, Ev, Hh} {
		spec := QuerySpec{Query: vectors[(7+31*i)%len(vectors)], K: 3, Criterion: crit}
		ra, pa, err := a.QueryExplain(spec)
		if err != nil {
			t.Fatal(err)
		}
		rb, pb, err := b.QueryExplain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ea, eb := pa.Explain(), pb.Explain(); ea != eb {
			t.Fatalf("%v: EXPLAIN differs:\n%s\n%s", crit, ea, eb)
		}
		if !assertSameAnswer(t, crit.String(), rb.Results, ra.Results) || !reflect.DeepEqual(ra.Stats, rb.Stats) {
			t.Fatalf("%v: answers differ: %+v vs %+v", crit, ra, rb)
		}
	}
}

// TestOpenDurableOlderStatsBlock opens a durable directory whose MANIFEST
// carries a statistics block as releases with a learned cost model wrote
// it: the directory opens, and it plans and answers exactly as its twin
// with an empty block does.
func TestOpenDurableOlderStatsBlock(t *testing.T) {
	older, vectors, _ := buildMmapFixture(t, 300, 8, 100, 5)
	fresh, _, _ := buildMmapFixture(t, 300, 8, 100, 5)
	path := filepath.Join(older, vstore.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withStatsBlock(raw, 52, 4, []byte(olderStatsBlock)), 0o644); err != nil {
		t.Fatal(err)
	}
	var cols [2]*Collection
	for i, dir := range []string{older, fresh} {
		if cols[i], err = OpenDurable(dir, DurableOptions{}); err != nil {
			t.Fatal(err)
		}
		defer cols[i].Close()
	}
	assertSamePlans(t, cols[0], cols[1], vectors)
}

// TestPlannerDeterministic pins what taking the clock and the history out
// of the planner buys: a plan is a function of the collection and the
// query, and of nothing else. Three durable collections are built by the
// same operations — one reopened heap-decoded, two memory-mapped — and go
// through the same mutations: a recluster, then a checkpoint and reopen.
// Before each phase the first two also answer forced compressed, VA-File
// and exact queries and a QueryBatch; the third answers nothing but the
// compared queries themselves. After every auto query the three EXPLAIN
// texts are byte-identical, and auto ran BOND on every executed step.
func TestPlannerDeterministic(t *testing.T) {
	const (
		n, dims, segSize = 1200, 16, 100
		seed             = 77
	)
	var dirs [3]string
	for i := range dirs {
		dirs[i], _, _ = buildMmapFixture(t, n, dims, segSize, seed)
	}
	opts := [3]DurableOptions{{DisableMmap: true, Fsync: FsyncNever}, {Fsync: FsyncNever}, {Fsync: FsyncNever}}
	var cols [3]*Collection
	open := func() {
		for i := range cols {
			c, err := OpenDurable(dirs[i], opts[i])
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = c
		}
		if cols[0].StatsSnapshot().MappedBytes != 0 {
			t.Fatal("DisableMmap collection reports mapped bytes")
		}
		if cols[1].StatsSnapshot().MappedBytes == 0 {
			t.Log("platform cannot memory-map segment files: every collection is heap-backed")
		}
	}
	closeAll := func() {
		for _, c := range cols {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	open()
	defer closeAll()

	rng := rand.New(rand.NewSource(seed))
	nextSpec := func(i int) QuerySpec {
		spec := QuerySpec{Query: randVector(rng, dims), K: 5, Criterion: Eq}
		if i%2 == 1 {
			spec.Criterion = Hq
		}
		return spec
	}
	// history gives the two queried collections what the quiet one never
	// sees: every other access path, and a batch, whose answers must agree
	// between them exactly.
	history := func(phase string) {
		t.Helper()
		specs := make([]QuerySpec, 16)
		for i := range specs {
			specs[i] = nextSpec(i)
		}
		for i, strat := range []Strategy{StrategyCompressed, StrategyVAFile, StrategyExact} {
			specs[i].Strategy = strat
			for _, c := range cols[:2] {
				if _, err := c.Query(specs[i]); err != nil {
					t.Fatalf("%s %v: %v", phase, strat, err)
				}
			}
		}
		var batch [2][]QueryResult
		for j, c := range cols[:2] {
			var err error
			if batch[j], err = c.QueryBatch(specs); err != nil {
				t.Fatal(err)
			}
		}
		for i := range specs {
			a, b := batch[0][i], batch[1][i]
			if !assertSameAnswer(t, fmt.Sprintf("%s batch query %d mapped", phase, i), b.Results, a.Results) ||
				!reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("%s batch query %d: heap and mapped differ: %+v vs %+v", phase, i, a, b)
			}
		}
	}
	// drive runs count auto queries on all three collections, comparing
	// after each one.
	drive := func(phase string, count int) {
		t.Helper()
		history(phase)
		for i := 0; i < count; i++ {
			spec := nextSpec(i)
			var texts [3]string
			for j, c := range cols {
				_, p, err := c.QueryExplain(spec)
				if err != nil {
					t.Fatalf("%s query %d: %v", phase, i, err)
				}
				texts[j] = p.Explain()
				for _, st := range p.Steps {
					if st.Executed && st.Path != plan.PathBOND {
						t.Fatalf("%s query %d: segment %d ran %v, want bond\n%s",
							phase, i, st.Segment, st.Path, texts[j])
					}
				}
			}
			if texts[0] != texts[1] || texts[0] != texts[2] {
				t.Fatalf("%s query %d: EXPLAIN differs between heap, mapped and quiet:\n%s\n%s\n%s",
					phase, i, texts[0], texts[1], texts[2])
			}
		}
	}

	drive("fresh", 64)

	for _, c := range cols {
		if _, err := c.ReclusterDurable(0, seed); err != nil {
			t.Fatal(err)
		}
	}
	drive("reclustered", 32)

	for _, c := range cols {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	open()
	drive("reopened", 32)
}
