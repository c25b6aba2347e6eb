package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"bond"
	"bond/internal/dataset"
	"bond/internal/seqscan"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// legacyFixtures are whole-file snapshots as releases before the durable
// directory wrote them, checked in under testdata/legacy. Every one holds
// dataset.CorelLike(50, 6, 33) with rows 7, 20 and 49 deleted. flat-v1 is
// the seed's flat store (one segment). The others are the segmented
// layout at segment size 16 (sealed segments of 16, 16, 16 and 2 rows,
// then an empty active segment): seg-v1 has no statistics block, seg-v2
// an empty one, and seg-v2-stats the learned cost model's block.
var legacyFixtures = []struct {
	name    string
	segSize int
}{
	{"flat-v1.bond", bond.DefaultSegmentSize},
	{"seg-v1.bond", 16},
	{"seg-v2.bond", 16},
	{"seg-v2-stats.bond", 16},
}

var (
	legacyVectors = dataset.CorelLike(50, 6, 33)
	legacyDeleted = []int{7, 20, 49}
)

// snapshotStatsAt is where a segmented snapshot's statistics block length
// field (8 bytes wide) sits: after its magic and four u64 header fields.
const snapshotStatsAt = len(segMagic) + 4*8

func legacyPath(name string) string {
	return filepath.Join("..", "..", "testdata", "legacy", name)
}

func legacyImage(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(legacyPath(name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// legacyCollection is the in-memory collection every legacy fixture is a
// snapshot of, at the fixture's segment size.
func legacyCollection(t *testing.T, segSize int) *bond.Collection {
	t.Helper()
	c := bond.NewCollectionSegmented(legacyVectors, segSize)
	deleteIDs(t, c, legacyDeleted...)
	return c
}

func deleteIDs(t *testing.T, c *bond.Collection, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if ok, err := c.TryDeleteDurable(id); !ok || err != nil {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
}

// collectionDump is what a collection holds, read through the public
// API: its rows by TryVector, the ids an exact scan of every row still
// finds, and each segment's base, length, live count and seal flag.
type collectionDump struct {
	dims, n, live int
	rows          [][]float64
	liveIDs       []int
	segs          []bond.SegmentStats
}

func dumpCollection(t *testing.T, c *bond.Collection) collectionDump {
	t.Helper()
	d := collectionDump{dims: c.Dims(), n: c.Len(), live: c.Live()}
	for id := 0; id < d.n; id++ {
		v, ok := c.TryVector(id)
		if !ok {
			t.Fatalf("TryVector(%d) out of range in a %d-row collection", id, d.n)
		}
		d.rows = append(d.rows, v)
	}
	if d.live > 0 {
		res, err := c.Query(bond.QuerySpec{Query: d.rows[0], K: d.n, Criterion: bond.Hq, Strategy: bond.StrategyExact})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			d.liveIDs = append(d.liveIDs, r.ID)
		}
		slices.Sort(d.liveIDs)
	}
	for _, s := range c.StatsSnapshot().SegmentStats {
		d.segs = append(d.segs, bond.SegmentStats{Base: s.Base, Len: s.Len, Live: s.Live, Sealed: s.Sealed})
	}
	return d
}

// assertSameCollection fails unless got holds what want holds — rows,
// tombstones and segment boundaries — and plans and answers every
// criterion exactly as want does.
func assertSameCollection(t *testing.T, got, want *bond.Collection) {
	t.Helper()
	g, w := dumpCollection(t, got), dumpCollection(t, want)
	if !reflect.DeepEqual(g.segs, w.segs) {
		t.Fatalf("segments %+v, want %+v", g.segs, w.segs)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("rows or tombstones differ: %d/%d live, want %d/%d", g.live, g.n, w.live, w.n)
	}
	assertSamePlans(t, got, want, w.rows)
}

// assertSamePlans runs one query per criterion through both collections:
// the EXPLAIN text and the answers must be identical.
func assertSamePlans(t *testing.T, a, b *bond.Collection, vectors [][]float64) {
	t.Helper()
	for i, crit := range []bond.Criterion{bond.Eq, bond.Hq, bond.Ev, bond.Hh} {
		spec := bond.QuerySpec{Query: vectors[(7+31*i)%len(vectors)], K: 3, Criterion: crit}
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
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%v: answers differ: %+v vs %+v", crit, ra, rb)
		}
	}
}

// importFile imports the snapshot file src into a fresh directory and
// opens the result; the collection is closed when the test ends.
func importFile(t *testing.T, src string) (*bond.Collection, string) {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "imported.bond")
	if err := importSnapshot(src, dst); err != nil {
		t.Fatalf("import %s: %v", src, err)
	}
	col, err := bond.OpenDurable(dst, bond.DurableOptions{})
	if err != nil {
		t.Fatalf("open imported %s: %v", src, err)
	}
	t.Cleanup(func() { col.Close() })
	return col, dst
}

func importFixture(t *testing.T, name string) (*bond.Collection, string) {
	t.Helper()
	return importFile(t, legacyPath(name))
}

// importImage imports a snapshot image built in the test.
func importImage(t *testing.T, img []byte) *bond.Collection {
	t.Helper()
	src := filepath.Join(t.TempDir(), "snapshot.bond")
	if err := os.WriteFile(src, img, 0o644); err != nil {
		t.Fatal(err)
	}
	col, _ := importFile(t, src)
	return col
}

// TestImportSnapshot converts each legacy fixture and opens the result:
// rows, tombstones, segment boundaries and EXPLAIN equal those of the
// in-memory collection the snapshot was taken of. The import only reads
// its source, refuses an existing destination, and refuses a corrupt
// source without leaving a destination or a staging directory behind.
func TestImportSnapshot(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			src := legacyPath(fx.name)
			orig := legacyImage(t, fx.name)
			dir := t.TempDir()
			dst := filepath.Join(dir, "imported.bond")
			if err := importSnapshot(src, dst); err != nil {
				t.Fatal(err)
			}
			if err := importSnapshot(src, dst); err == nil {
				t.Fatal("import over an existing destination succeeded")
			}
			if after, err := os.ReadFile(src); err != nil || !bytes.Equal(after, orig) {
				t.Fatalf("import changed its source (%v)", err)
			}

			col, err := bond.OpenDurable(dst, bond.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			assertSameCollection(t, col, legacyCollection(t, fx.segSize))

			bad := append([]byte(nil), orig...)
			bad[len(bad)/2] ^= 0x01
			badSrc, badDst := filepath.Join(dir, "bad.bond"), filepath.Join(dir, "bad-imported.bond")
			if err := os.WriteFile(badSrc, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := importSnapshot(badSrc, badDst); err == nil {
				t.Fatal("corrupt snapshot imported")
			}
			for _, p := range []string{badDst, badDst + importingSuffix} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("failed import left %s behind (%v)", p, err)
				}
			}
		})
	}
}

// TestLegacyMigration is the compatibility guarantee for pre-WAL store
// files: every snapshot format an earlier release wrote becomes, through
// the import, a durable directory holding the same vectors, which takes
// durable writes and survives a reopen.
func TestLegacyMigration(t *testing.T) {
	for _, fx := range legacyFixtures {
		col, dst := importFixture(t, fx.name)
		if info, err := os.Stat(dst); err != nil || !info.IsDir() {
			t.Fatalf("%s: import left a non-directory (%v)", fx.name, err)
		}
		if col.Len() != len(legacyVectors) || col.Live() != len(legacyVectors)-len(legacyDeleted) || col.Dims() != 6 {
			t.Fatalf("%s: imported shape %d/%d×%d", fx.name, col.Len(), col.Live(), col.Dims())
		}
		for id, v := range legacyVectors {
			got, ok := col.TryVector(id)
			if !ok || !reflect.DeepEqual(got, v) {
				t.Fatalf("%s: vector %d differs after import", fx.name, id)
			}
		}
		if _, err := col.AddDurable(legacyVectors[0]); err != nil {
			t.Fatal(err)
		}
		want := dumpCollection(t, col)
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := bond.OpenDurable(dst, bond.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dumpCollection(t, again), want) {
			t.Fatalf("%s: reopen after import diverged", fx.name)
		}
		again.Close()
	}
}

// TestFacadeOpenLegacyFlatFile opens the seed's flat v1 file after its
// import: its rows form one sealed segment, a self query finds its own
// row, and the collection keeps growing as a segmented one.
func TestFacadeOpenLegacyFlatFile(t *testing.T) {
	col, _ := importFixture(t, "flat-v1.bond")
	if col.Len() != 50 || col.Live() != 47 || col.NumSegments() != 2 {
		t.Fatalf("flat import: len=%d live=%d segments=%d", col.Len(), col.Live(), col.NumSegments())
	}
	if seg := col.StatsSnapshot().SegmentStats[0]; !seg.Sealed || seg.Len != 50 {
		t.Fatalf("flat rows not one sealed segment: %+v", seg)
	}
	res, err := col.Query(bond.QuerySpec{Query: legacyVectors[3], K: 1, Criterion: bond.Hq, Strategy: bond.StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID != 3 {
		t.Fatalf("self query returned %d", res.Results[0].ID)
	}
	if id, err := col.AddDurable(legacyVectors[0]); err != nil || id != 50 || col.Len() != 51 {
		t.Fatalf("append after flat import: id %d, len %d (%v)", id, col.Len(), err)
	}
}

// TestOpenOlderStatsBlock is the snapshot-file half of the root package's
// TestOpenDurableOlderStatsBlock: where a durable directory carrying a
// non-empty statistics block is refused, an image carrying one imports
// with the same rows, plans and answers as its twin without one.
func TestOpenOlderStatsBlock(t *testing.T) {
	older, _ := importFixture(t, "seg-v2-stats.bond")
	fresh, _ := importFixture(t, "seg-v2.bond")
	if !reflect.DeepEqual(dumpCollection(t, older), dumpCollection(t, fresh)) {
		t.Fatal("rows or tombstones differ from the image without a statistics block")
	}
	assertSamePlans(t, older, fresh, legacyVectors)
}

// TestLoadSegmentedFixture imports the segmented v1 and v2 snapshot
// fixtures: shape, seal flags, rows and delete marks come back, the
// imported collection keeps appending into its active segment, and a
// flipped byte is caught by a checksum.
func TestLoadSegmentedFixture(t *testing.T) {
	for _, name := range []string{"seg-v1.bond", "seg-v2.bond"} {
		got, _ := importFixture(t, name)
		want := legacyCollection(t, 16)
		g := dumpCollection(t, got)
		if !reflect.DeepEqual(g, dumpCollection(t, want)) {
			t.Fatalf("%s: rows, tombstones or bases differ: %+v", name, g.segs)
		}
		if len(g.segs) != 5 || !g.segs[3].Sealed || g.segs[4].Sealed {
			t.Fatalf("%s: %d segments, want 4 sealed and an active tail", name, len(g.segs))
		}
		if _, err := got.AddDurable(g.rows[0]); err != nil {
			t.Fatal(err)
		}
		if segs := got.StatsSnapshot().SegmentStats; got.Len() != 51 || segs[4].Len != 1 {
			t.Fatalf("%s: append after import: len=%d", name, got.Len())
		}
		bad := legacyImage(t, name)
		bad[len(bad)-20] ^= 0xff
		if _, err := loadSegmented(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: corrupted image loaded without error", name)
		}
	}
}

// TestSegStoreLoadAnyFileReadsLegacyFlat reads the seed's flat v1
// fixture through the import's reader: the rows load as one sealed
// segment, so codes and synopses apply, before an empty active one, and
// the delete marks survive. A segmented image goes through the same
// entry point.
func TestSegStoreLoadAnyFileReadsLegacyFlat(t *testing.T) {
	snap, err := loadSnapshot(legacyImage(t, "flat-v1.bond"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.segs) != 2 || snap.segs[0].Len() != 50 || snap.segs[0].Live() != 47 || snap.segs[1].Len() != 0 {
		t.Fatalf("legacy load: %d segments", len(snap.segs))
	}
	col, _ := importFixture(t, "flat-v1.bond")
	segs := col.StatsSnapshot().SegmentStats
	if !segs[0].Sealed || segs[1].Sealed || segs[1].Len != 0 {
		t.Fatal("legacy data should load as one sealed segment and an empty active one")
	}
	want := dumpCollection(t, legacyCollection(t, bond.DefaultSegmentSize))
	if got := dumpCollection(t, col); !reflect.DeepEqual(got.rows, want.rows) || !reflect.DeepEqual(got.liveIDs, want.liveIDs) {
		t.Fatal("a row or delete mark was lost")
	}
	seg, _ := importFixture(t, "seg-v1.bond")
	assertSameCollection(t, seg, legacyCollection(t, 16))
}

// TestSegStoreSkipsOlderStatsBlock reads a v2 snapshot whose statistics
// block is non-empty: the rows and delete marks are intact, as in its
// twin with an empty block. A block running past the end is corruption.
func TestSegStoreSkipsOlderStatsBlock(t *testing.T) {
	fresh, older := legacyImage(t, "seg-v2.bond"), legacyImage(t, "seg-v2-stats.bond")
	if n := binary.LittleEndian.Uint64(fresh[snapshotStatsAt:]); n != 0 {
		t.Fatalf("seg-v2.bond has a %d-byte statistics block, want 0", n)
	}
	if n := binary.LittleEndian.Uint64(older[snapshotStatsAt:]); n == 0 {
		t.Fatal("seg-v2-stats.bond has an empty statistics block")
	}
	for _, load := range []func([]byte) (*snapshot, error){
		func(b []byte) (*snapshot, error) { return loadSegmented(bytes.NewReader(b)) },
		loadSnapshot,
	} {
		got, err := load(older)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := loadSnapshot(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("rows or delete marks differ from the image without a statistics block")
		}
	}
	torn := append([]byte(nil), fresh...)
	binary.LittleEndian.PutUint64(torn[snapshotStatsAt:], 1<<19)
	binary.LittleEndian.PutUint32(torn[len(torn)-4:], crc32.ChecksumIEEE(torn[:len(torn)-4]))
	if _, err := loadSegmented(bytes.NewReader(torn)); err == nil {
		t.Fatal("statistics block running past the end loaded")
	}
}

// segmentedImage writes a version-2 segmented snapshot of segSize holding
// one segment per entry of segs, each row range with its tombstones as
// local ids — the layout releases before the durable directory saved.
func segmentedImage(t *testing.T, dims, segSize int, segs [][][]float64, deleted [][]int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	for _, h := range []uint64{2, uint64(dims), uint64(segSize), uint64(len(segs)), 0} {
		binary.Write(&buf, binary.LittleEndian, h)
	}
	for i, rows := range segs {
		st := vstore.New(dims)
		st.AppendBatch(rows)
		for _, id := range deleted[i] {
			st.Delete(id)
		}
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// TestImportSegmentBoundaries imports sealed segments of 16, 5 and 16 rows
// and an active one of 3, with tombstones in a sealed segment and in the
// active one: the directory holds what the same appends and seals give.
func TestImportSegmentBoundaries(t *testing.T) {
	vs := dataset.CorelLike(40, 6, 71)
	cuts := []int{0, 16, 21, 37, 40}
	var segs [][][]float64
	for i := 1; i < len(cuts); i++ {
		segs = append(segs, vs[cuts[i-1]:cuts[i]])
	}
	deleted := [][]int{nil, {1, 4}, nil, {2}}
	got := importImage(t, segmentedImage(t, 6, 16, segs, deleted))

	want := bond.NewSegmented(6, 16)
	for i, rows := range segs {
		if _, err := want.AddBatchDurable(rows); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := want.SealActiveDurable(); err != nil {
				t.Fatal(err)
			}
		}
	}
	deleteIDs(t, want, 17, 20, 39)
	assertSameCollection(t, got, want)
	wantSegs := []bond.SegmentStats{
		{Base: 0, Len: 16, Live: 16, Sealed: true},
		{Base: 16, Len: 5, Live: 3, Sealed: true},
		{Base: 21, Len: 16, Live: 16, Sealed: true},
		{Base: 37, Len: 3, Live: 2},
	}
	if g := dumpCollection(t, got); !reflect.DeepEqual(g.segs, wantSegs) {
		t.Fatalf("segments %+v, want %+v", g.segs, wantSegs)
	}
}

// TestImportCutsLongFlatFile imports a seed-format flat file one row
// longer than the default segment size: its rows are cut at that size, as
// any bulk load is, into two sealed segments before an empty active one,
// and every criterion still answers as an exact scan of the live rows.
func TestImportCutsLongFlatFile(t *testing.T) {
	n := bond.DefaultSegmentSize + 1
	vs := dataset.CorelLike(n, 4, 72)
	st := vstore.FromVectors(vs)
	st.Delete(3)
	st.Delete(n - 1)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	col := importImage(t, buf.Bytes())

	wantSegs := []bond.SegmentStats{
		{Base: 0, Len: n - 1, Live: n - 2, Sealed: true},
		{Base: n - 1, Len: 1, Live: 0, Sealed: true},
		{Base: n, Len: 0, Live: 0},
	}
	if got := dumpCollection(t, col).segs; !reflect.DeepEqual(got, wantSegs) {
		t.Fatalf("segments %+v, want %+v", got, wantSegs)
	}
	var live [][]float64
	var ids []int
	for id, v := range vs {
		if id != 3 && id != n-1 {
			live = append(live, v)
			ids = append(ids, id)
		}
	}
	for _, tc := range []struct {
		crit   bond.Criterion
		oracle func([][]float64, []float64, int) ([]topk.Result, seqscan.Stats)
	}{
		{bond.Hq, seqscan.SearchHistogram},
		{bond.Eq, seqscan.SearchEuclidean},
	} {
		for _, qid := range []int{0, 3, 2048, n - 1} {
			res, err := col.Query(bond.QuerySpec{Query: vs[qid], K: 5, Criterion: tc.crit})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := tc.oracle(live, vs[qid], 5)
			if len(res.Results) != len(want) {
				t.Fatalf("%v query %d: %d results, want %d", tc.crit, qid, len(res.Results), len(want))
			}
			for i, w := range want {
				if got := res.Results[i]; got.ID != ids[w.ID] || got.Score != w.Score {
					t.Fatalf("%v query %d rank %d: id %d score %v, want id %d score %v",
						tc.crit, qid, i, got.ID, got.Score, ids[w.ID], w.Score)
				}
			}
		}
	}
}

// FuzzLoadSegmented guards the reader -import converts snapshot files of
// earlier releases with: loadSnapshot and the segmented and flat loaders
// behind it. The checked-in fixtures seed it.
func FuzzLoadSegmented(f *testing.F) {
	valid := legacyImage(f, "seg-v2.bond")
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte("BONDSEG1"))
	for _, name := range []string{"seg-v1.bond", "seg-v2-stats.bond", "flat-v1.bond"} {
		f.Add(legacyImage(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = loadSnapshot(data)
	})
}

// TestImportRefusesNonFinite refuses a snapshot holding a NaN or ±Inf
// coordinate, which no collection may hold, with an error rather than
// the panic an append of it would raise, and leaves nothing behind.
func TestImportRefusesNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vs := dataset.CorelLike(8, 3, 73)
		vs[5][1] = x
		var buf bytes.Buffer
		if err := vstore.FromVectors(vs).Save(&buf); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		src, dst := filepath.Join(dir, "bad.bond"), filepath.Join(dir, "imported.bond")
		if err := os.WriteFile(src, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := importSnapshot(src, dst); !errors.Is(err, vstore.ErrCorrupt) {
			t.Fatalf("coordinate %v: import error %v, want vstore.ErrCorrupt", x, err)
		}
		for _, p := range []string{dst, dst + importingSuffix} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused import left %s behind (%v)", p, err)
			}
		}
	}
}
