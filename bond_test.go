package bond

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bond/internal/baseline/mil"
	"bond/internal/core"
	"bond/internal/crashfs"
	"bond/internal/dataset"
	"bond/internal/seqscan"
	"bond/internal/topk"
)

func testCollection(t *testing.T) ([][]float64, *Collection) {
	t.Helper()
	vs := dataset.CorelLike(600, 32, 2024)
	return vs, NewCollection(vs)
}

// addSealed appends vectors to c and seals the active segment, so the
// next append opens a fresh one.
func addSealed(t *testing.T, c *Collection, vectors [][]float64) {
	t.Helper()
	if _, err := c.AddBatchDurable(vectors); err != nil {
		t.Fatal(err)
	}
	if err := c.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
}

// deleteIDs tombstones each id, failing the test if one is outside c.
func deleteIDs(t *testing.T, c *Collection, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if ok, err := c.TryDeleteDurable(id); !ok || err != nil {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
}

// TestCollectionMethodSet pins the exported method set of *Collection, so
// a new method — a second variant of an existing mutator, say — arrives as
// a reviewed change to this list.
func TestCollectionMethodSet(t *testing.T) {
	want := []string{
		"AddBatchDurable", "AddDurable", "ApplyReplChunk", "AsFeature",
		"Checkpoint", "Close", "Cluster", "CompactRatioDurable", "Dims",
		"Len", "Live", "NewExclusion", "NumSegments", "ProbeWAL",
		"Query", "QueryBatch", "QueryExplain", "Recluster", "ReclusterAdvice",
		"ReclusterDurable", "ReplChunk", "ReplPosition",
		"ReplSnapshot", "SealActiveDurable", "SealedSpread",
		"StatsSnapshot", "TombstoneRatio",
		"TryDeleteDurable", "TryVector", "Vector", "WALStats",
	}
	typ := reflect.TypeOf(&Collection{})
	got := make([]string, typ.NumMethod()) // reflect lists them sorted
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Collection has %d exported methods, want %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestPublicSurface pins the package's exported top-level names — types,
// functions, constants and variables, read from the source — so a new
// export arrives as a reviewed change to this list, as a new method does
// to TestCollectionMethodSet's.
func TestPublicSurface(t *testing.T) {
	want := []string{
		"Aggregate", "BootstrapReplica", "ClusterOptions", "ClusterResult",
		"Collection", "CollectionStats", "Criterion", "DefaultSegmentSize",
		"DurabilityStats", "DurableOptions", "Eq", "ErrClosed",
		"ErrNotDurable", "ErrReplDiverged", "ErrReplGone", "Ev", "Feature",
		"FsyncAlways", "FsyncInterval", "FsyncNever", "FsyncPolicy", "Hh",
		"Hq", "MaxAgg", "MinAgg", "MultiOptions", "MultiResult",
		"MultiSearch", "Neighbor", "NewCollection", "NewCollectionSegmented",
		"NewSegmented", "OpenDurable", "Order", "OrderNatural",
		"OrderQueryAsc", "OrderQueryDesc", "OrderRandom", "ParseCriterion",
		"ParseFsync", "ParseOrder", "ParseStrategy", "PlannerPoolStats",
		"QueryPlan", "QueryResult", "QuerySpec", "QueryUsefulness", "Result",
		"SegmentStats", "SegmentSynopsis", "Stats", "Strategy",
		"StrategyAuto", "StrategyBOND", "StrategyCompressed",
		"StrategyExact", "StrategyVAFile", "WeightedAvg",
	}
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						got = append(got, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	got = slices.DeleteFunc(got, func(n string) bool { return !ast.IsExported(n) })
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("package bond exports %d names, want %d:\ngot  %q\nwant %q", len(got), len(want), got, want)
	}
	t.Logf("package bond exports %d names; *Collection has %d exported methods",
		len(got), reflect.TypeOf(&Collection{}).NumMethod())
}

// TestQuerySpecFields pins the query settings: the fields of QuerySpec and
// the JSON keys of its wire form, api.QuerySpec (read from the source, as
// package api imports this one), so a new setting arrives as a reviewed
// change to one of these lists.
func TestQuerySpecFields(t *testing.T) {
	wantFields := []string{
		"Query", "K", "Criterion", "Order", "Step", "Weights", "Dims",
		"Exclude", "Strategy", "Tolerance", "Deadline",
	}
	wantKeys := []string{
		"query", "id", "k", "criterion", "order", "step", "weights", "dims",
		"strategy", "tolerance", "timeout_ms", "policy",
	}
	typ := reflect.TypeOf(QuerySpec{})
	var fields []string
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() {
			fields = append(fields, f.Name)
		}
	}
	if !slices.Equal(fields, wantFields) {
		t.Errorf("QuerySpec has %d exported fields, want %d:\ngot  %q\nwant %q", len(fields), len(wantFields), fields, wantFields)
	}

	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "api", "wire.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "QuerySpec" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			if field.Tag == nil {
				t.Errorf("api.QuerySpec.%s has no json tag", field.Names[0].Name)
				continue
			}
			tag, _ := strconv.Unquote(field.Tag.Value)
			key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
			keys = append(keys, key)
		}
		return false
	})
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("api.QuerySpec has %d JSON keys, want %d:\ngot  %q\nwant %q", len(keys), len(wantKeys), keys, wantKeys)
	}
	t.Logf("QuerySpec has %d fields; api.QuerySpec %d JSON keys", len(fields), len(keys))
}

func TestFacadeSearchMatchesScan(t *testing.T) {
	vs, col := testCollection(t)
	q := vs[10]
	res, err := col.Query(QuerySpec{Query: q, K: 5, Criterion: Hq, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seqscan.SearchHistogram(vs, q, 5)
	for i := range want {
		if res.Results[i].ID != want[i].ID &&
			math.Abs(res.Results[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("rank %d: id %d, want %d", i, res.Results[i].ID, want[i].ID)
		}
	}
}

func TestFacadeLifecycle(t *testing.T) {
	vs, col := testCollection(t)
	if col.Dims() != 32 || col.Len() != 600 || col.Live() != 600 {
		t.Fatalf("shape: %d×%d live %d", col.Len(), col.Dims(), col.Live())
	}
	id, err := col.AddDurable(vs[0])
	if err != nil || id != 600 || col.Live() != 601 {
		t.Fatalf("AddDurable: id=%d live=%d err=%v", id, col.Live(), err)
	}
	deleteIDs(t, col, id)
	if col.Live() != 600 {
		t.Fatalf("TryDeleteDurable: live=%d", col.Live())
	}
	mapping, err := col.CompactRatioDurable(0)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 600 || mapping[600] != -1 {
		t.Fatalf("Compact: len=%d mapping=%v", col.Len(), mapping[600])
	}
	v := col.Vector(3)
	for d := range v {
		if v[d] != vs[3][d] {
			t.Fatal("Vector mismatch after compact")
		}
	}
}

func TestFacadeCompressedLazyBuildAndInvalidation(t *testing.T) {
	vs, col := testCollection(t)
	q := vs[7]
	a, err := col.Query(QuerySpec{Query: q, K: 5, Criterion: Hq, Strategy: StrategyCompressed})
	if err != nil {
		t.Fatal(err)
	}
	// Adding a vector invalidates the codes; a repeat search must see it.
	if _, err := col.AddDurable(q); err != nil {
		t.Fatal(err)
	}
	b, err := col.Query(QuerySpec{Query: q, K: 1, Criterion: Hq, Strategy: StrategyCompressed})
	if err != nil {
		t.Fatal(err)
	}
	if b.Results[0].ID != 600 && b.Results[0].Score < a.Results[0].Score {
		t.Error("appended exact duplicate not found by compressed search")
	}
}

func TestFacadeMILAndExclusion(t *testing.T) {
	vs, col := testCollection(t)
	q := vs[0]
	excl := col.NewExclusion()
	excl.Set(0)
	res, err := col.Query(QuerySpec{Query: q, K: 1, Criterion: Hq, Exclude: excl, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID == 0 {
		t.Error("excluded id returned")
	}
	// The MIL reference engine is not a Collection strategy; it runs on the
	// flattened store as the oracle it is.
	ref, err := mil.SearchMIL(col.store.Flatten(), q, mil.MILOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Results[0].ID != 0 {
		t.Errorf("MIL best = %d, want the query itself", ref.Results[0].ID)
	}
}

func TestFacadeMultiSearch(t *testing.T) {
	v1 := dataset.CorelLike(200, 16, 1)
	v2 := dataset.CorelLike(200, 24, 2)
	c1, c2 := NewCollection(v1), NewCollection(v2)
	features := []Feature{
		c1.AsFeature(v1[0], 0.5),
		c2.AsFeature(v2[0], 0.5),
	}
	res, err := MultiSearch(features, MultiOptions{K: 3, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID != 0 {
		t.Errorf("best = %d, want 0 (self query)", res.Results[0].ID)
	}
}

func TestFacadeWeightedAndSubspace(t *testing.T) {
	vs, col := testCollection(t)
	q := vs[9]
	w := dataset.WeightsZipf(32, 2, 7)
	res, err := col.Query(QuerySpec{Query: q, K: 4, Criterion: Ev, Weights: w, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seqscan.SearchWeightedEuclidean(vs, q, w, 4)
	for i := range want {
		if res.Results[i].ID != want[i].ID &&
			math.Abs(res.Results[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("weighted rank %d: id %d, want %d", i, res.Results[i].ID, want[i].ID)
		}
	}
	sub, err := col.Query(QuerySpec{Query: q, K: 4, Criterion: Ev, Dims: []int{0, 5, 9}, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Results) != 4 {
		t.Errorf("subspace returned %d results", len(sub.Results))
	}
}

// StrategyExact answers weighted and subspace queries (it ignored both
// before the exact scan became a one-step engine run). It folds the
// effective dimensions left to right in storage order, which is the
// sequential scan's own sum, so the scores compare with ==.
func TestExactStrategyWeightedAndSubspace(t *testing.T) {
	vs := dataset.CorelLike(600, 32, 2024)
	col := NewCollectionSegmented(vs, 100)
	w := dataset.WeightsZipf(32, 2, 7)
	dims := []int{9, 0, 5, 31}
	sub := make([]float64, 32)
	for _, d := range dims {
		sub[d] = 1
	}
	whist := func(q []float64, weight func(d int) float64) []topk.Result {
		h := topk.NewLargest(4)
		for id, v := range vs {
			s := 0.0
			for d, x := range v {
				s += weight(d) * min(x, q[d])
			}
			h.Push(id, s)
		}
		return h.Results()
	}
	for _, qid := range []int{9, 123, 599} {
		q := vs[qid]
		wEuc, _ := seqscan.SearchWeightedEuclidean(vs, q, w, 4)
		subEuc, _ := seqscan.SearchWeightedEuclidean(vs, q, sub, 4)
		for _, tc := range []struct {
			name string
			spec QuerySpec
			want []topk.Result
		}{
			{"Eq weighted", QuerySpec{Criterion: Eq, Weights: w}, wEuc},
			{"Ev weighted", QuerySpec{Criterion: Ev, Weights: w}, wEuc},
			{"Eq subspace", QuerySpec{Criterion: Eq, Dims: dims}, subEuc},
			{"Hq weighted", QuerySpec{Criterion: Hq, Weights: w}, whist(q, func(d int) float64 { return w[d] })},
			{"Hh subspace", QuerySpec{Criterion: Hh, Dims: dims}, whist(q, func(d int) float64 { return sub[d] })},
		} {
			tc.spec.Query, tc.spec.K, tc.spec.Strategy = q, 4, StrategyExact
			res, err := col.Query(tc.spec)
			if err != nil {
				t.Fatalf("%s q%d: %v", tc.name, qid, err)
			}
			if len(res.Results) != len(tc.want) {
				t.Fatalf("%s q%d: %d results, want %d", tc.name, qid, len(res.Results), len(tc.want))
			}
			for i, want := range tc.want {
				if got := res.Results[i]; got.ID != want.ID || got.Score != want.Score {
					t.Errorf("%s q%d rank %d: %+v, want %+v", tc.name, qid, i, got, want)
				}
			}
		}
	}
}

// TestQueryRejectsNonFiniteInput: a NaN or infinite query coordinate,
// weight or tolerance is refused with core.ErrQueryRange by every
// strategy and by QueryBatch, instead of scoring every vector NaN or
// +Inf (the engine's "no candidate" sentinel) and answering nothing.
func TestQueryRejectsNonFiniteInput(t *testing.T) {
	col := NewCollectionSegmented([][]float64{{1, 0}, {0, 0}, {0.5, 0.5}}, 2)
	nan := math.NaN()
	for _, strategy := range []Strategy{StrategyAuto, StrategyBOND, StrategyExact} {
		for name, spec := range map[string]QuerySpec{
			"NaN coordinate": {Query: []float64{nan, 0.5}, Criterion: Eq},
			"Inf coordinate": {Query: []float64{0.5, math.Inf(-1)}, Criterion: Hq},
			"NaN weight":     {Query: []float64{0.5, 0.5}, Criterion: Ev, Weights: []float64{1, nan}},
			"NaN tolerance":  {Query: []float64{0.5, 0.5}, Criterion: Hq, Tolerance: nan},
			"overflow":       {Query: []float64{-1e200, 0.5}, Criterion: Eq},
		} {
			spec.K, spec.Strategy = 2, strategy
			if _, err := col.Query(spec); !errors.Is(err, core.ErrQueryRange) {
				t.Errorf("%v %s: Query err = %v, want ErrQueryRange", strategy, name, err)
			}
			ok := QuerySpec{Query: []float64{0.5, 0.5}, K: 2, Strategy: strategy}
			if _, err := col.QueryBatch([]QuerySpec{ok, spec}); !errors.Is(err, core.ErrQueryRange) {
				t.Errorf("%v %s: QueryBatch err = %v, want ErrQueryRange", strategy, name, err)
			}
		}
	}
}

// TestIngestRejectsNonFiniteCoordinates: a NaN or infinite coordinate is
// refused by every library entry point that takes vectors, like a dims
// mismatch: a panic naming the vector and the coordinate, before anything
// is stored or logged. Admitted, a NaN row ranked first for every strategy,
// and an infinite one failed every later query with ErrQueryRange.
func TestIngestRejectsNonFiniteCoordinates(t *testing.T) {
	rows := func() [][]float64 {
		vs := make([][]float64, 64)
		for i := range vs {
			vs[i] = []float64{float64(i) / 64, 0.5}
		}
		return vs
	}
	answers := func(t *testing.T, label string, col *Collection) {
		t.Helper()
		for _, strategy := range []Strategy{StrategyAuto, StrategyBOND, StrategyExact} {
			res, err := col.Query(QuerySpec{Query: []float64{0.3, 0.5}, K: 3, Criterion: Eq, Strategy: strategy})
			if err != nil {
				t.Fatalf("%s: %v: %v", label, strategy, err)
			}
			var ids []int
			for _, r := range res.Results {
				ids = append(ids, r.ID)
			}
			if fmt.Sprint(ids) != "[19 20 18]" {
				t.Fatalf("%s: %v answered %v, want [19 20 18]", label, strategy, res.Results)
			}
		}
	}
	refused := func(t *testing.T, label, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want one naming %q", label, msg, want)
			}
		}()
		f()
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			vs := rows()
			vs[0] = []float64{bad, 0.5}
			refused(t, "NewCollectionSegmented", "vector 0 coordinate 0", func() { NewCollectionSegmented(vs, 64) })
			refused(t, "NewCollection", "vector 0 coordinate 0", func() { NewCollection(vs) })

			fs := crashfs.NewMemFS()
			durable, err := OpenDurable("c.bond", DurableOptions{FS: fs, Dims: 2, SegmentSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := durable.AddBatchDurable(rows()); err != nil {
				t.Fatal(err)
			}
			for name, col := range map[string]*Collection{"in memory": NewCollectionSegmented(rows(), 64), "durable": durable} {
				v, batch := []float64{0.3, bad}, [][]float64{{0.3, 0.5}, {bad, 0.5}}
				refused(t, name+" AddDurable", "vector coordinate 1", func() { col.AddDurable(v) })
				refused(t, name+" AddBatchDurable", "vector 1 coordinate 0", func() { col.AddBatchDurable(batch) })
				if col.Len() != 64 {
					t.Fatalf("%s: %d vectors after the refused adds, want 64", name, col.Len())
				}
				answers(t, name, col)
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenDurable("c.bond", DurableOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if reopened.Len() != 64 {
				t.Fatalf("the log replayed %d vectors, want 64", reopened.Len())
			}
			answers(t, "reopened", reopened)
		})
	}
}
