package bond

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bond/internal/dataset"
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
	{"flat-v1.bond", DefaultSegmentSize},
	{"seg-v1.bond", 16},
	{"seg-v2.bond", 16},
	{"seg-v2-stats.bond", 16},
}

var (
	legacyVectors = dataset.CorelLike(50, 6, 33)
	legacyDeleted = []int{7, 20, 49}
)

// TestImportSnapshot converts each legacy fixture and opens the result:
// rows, tombstones, segment boundaries and EXPLAIN equal those of the
// in-memory collection the snapshot was taken of. The import only reads its source,
// refuses an existing destination, and refuses a corrupt source without
// leaving a destination behind.
func TestImportSnapshot(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			src := filepath.Join("testdata", "legacy", fx.name)
			orig, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dst := filepath.Join(dir, "imported.bond")
			if err := ImportSnapshot(src, dst); err != nil {
				t.Fatal(err)
			}
			if err := ImportSnapshot(src, dst); err == nil {
				t.Fatal("import over an existing destination succeeded")
			}
			if after, err := os.ReadFile(src); err != nil || !bytes.Equal(after, orig) {
				t.Fatalf("import changed its source (%v)", err)
			}

			want := NewCollectionSegmented(legacyVectors, fx.segSize)
			deleteIDs(t, want, legacyDeleted...)
			col, err := OpenDurable(dst, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			if got, w := dumpCollection(col), dumpCollection(want); !sameDump(got, w) {
				t.Fatalf("imported rows or tombstones differ: %d/%d live in %d segments, want %d/%d in %d",
					got.live, got.n, got.nseg, w.live, w.n, w.nseg)
			}
			gs, ws := col.StatsSnapshot().SegmentStats, want.StatsSnapshot().SegmentStats
			if len(gs) != len(ws) {
				t.Fatalf("%d segments, want %d", len(gs), len(ws))
			}
			for i := range gs {
				if gs[i].Base != ws[i].Base || gs[i].Len != ws[i].Len || gs[i].Sealed != ws[i].Sealed {
					t.Fatalf("segment %d: %+v, want %+v", i, gs[i], ws[i])
				}
			}
			assertSamePlans(t, col, want, legacyVectors)

			bad := append([]byte(nil), orig...)
			bad[len(bad)/2] ^= 0x01
			badSrc, badDst := filepath.Join(dir, "bad.bond"), filepath.Join(dir, "bad-imported.bond")
			if err := os.WriteFile(badSrc, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := ImportSnapshot(badSrc, badDst); err == nil {
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

// importFixture imports the named legacy fixture into a fresh directory
// and opens the result; the collection is closed when the test ends.
func importFixture(t *testing.T, name string) (*Collection, string) {
	t.Helper()
	dst := filepath.Join(t.TempDir(), name)
	if err := ImportSnapshot(filepath.Join("testdata", "legacy", name), dst); err != nil {
		t.Fatalf("import %s: %v", name, err)
	}
	col, err := OpenDurable(dst, DurableOptions{})
	if err != nil {
		t.Fatalf("open imported %s: %v", name, err)
	}
	t.Cleanup(func() { col.Close() })
	return col, dst
}

// TestLegacyMigration is the compatibility guarantee for pre-WAL store
// files: every snapshot format an earlier release wrote becomes, through
// ImportSnapshot, a durable directory holding the same vectors, which
// takes durable writes and survives a reopen.
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
		want := dumpCollection(col)
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenDurable(dst, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameDump(dumpCollection(again), want) {
			t.Fatalf("%s: reopen after import diverged", fx.name)
		}
		again.Close()
	}
}

// TestFacadeOpenLegacyFlatFile opens the seed's flat v1 file through the
// facade: its rows form one sealed segment, a self query finds its own
// row, and the collection keeps growing as a segmented one.
func TestFacadeOpenLegacyFlatFile(t *testing.T) {
	col, _ := importFixture(t, "flat-v1.bond")
	if col.Len() != 50 || col.Live() != 47 || col.NumSegments() != 2 {
		t.Fatalf("flat import: len=%d live=%d segments=%d", col.Len(), col.Live(), col.NumSegments())
	}
	if seg := col.StatsSnapshot().SegmentStats[0]; !seg.Sealed || seg.Len != 50 {
		t.Fatalf("flat rows not one sealed segment: %+v", seg)
	}
	res, err := col.Query(QuerySpec{Query: legacyVectors[3], K: 1, Criterion: Hq, Strategy: StrategyBOND})
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

// TestOpenOlderStatsBlock is the snapshot-file half of
// TestOpenDurableOlderStatsBlock: an image carrying a non-empty
// statistics block imports with the same rows, plans and answers as its
// twin without one.
func TestOpenOlderStatsBlock(t *testing.T) {
	older, _ := importFixture(t, "seg-v2-stats.bond")
	fresh, _ := importFixture(t, "seg-v2.bond")
	if !sameDump(dumpCollection(older), dumpCollection(fresh)) {
		t.Fatal("rows or tombstones differ from the image without a statistics block")
	}
	assertSamePlans(t, older, fresh, legacyVectors)
}

// TestOpenDurableRefusesLegacy holds OpenDurable closed in front of the
// two things an earlier release could have left at a collection path: a
// snapshot file, and (after a crash in its in-place migration) nothing
// but a complete staging directory beside it. Either error names the fix,
// does not read as "not found", and nothing is created even when Dims
// would permit it.
func TestOpenDurableRefusesLegacy(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "legacy", "seg-v2.bond"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap, staged := filepath.Join(dir, "snap.bond"), filepath.Join(dir, "staged.bond")
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(staged+migratingSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, fix string }{
		{snap, "bondgen -import " + snap},
		{staged, "mv " + staged + migratingSuffix + " " + staged},
	} {
		for _, dims := range []int{0, 6} {
			_, err := OpenDurable(tc.path, DurableOptions{Dims: dims})
			if err == nil || !strings.Contains(err.Error(), tc.fix) || errors.Is(err, os.ErrNotExist) {
				t.Fatalf("OpenDurable(%s, dims %d) = %v, want an error naming %q", tc.path, dims, err, tc.fix)
			}
		}
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("refused snapshot file changed (%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("refused opens left %d entries in the directory, want 2", len(entries))
	}
}
