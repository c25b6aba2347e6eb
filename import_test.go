package bond

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bond/internal/vstore"
)

// olderDirs are durable directories in the layouts of earlier releases
// that recovery refuses, checked in under testdata/legacy, each with what
// the refusal names: a version-1 MANIFEST over row-stream segment files,
// a version-2 MANIFEST naming row-stream (format-1) segment files, and a
// version-2 MANIFEST carrying the learned cost model's statistics block.
// Each holds three sealed segments, one tombstone and a WAL tail of an add
// and a delete; the release before the refusal opened each to the same
// state, and its Checkpoint rewrote each in the current layout.
var olderDirs = []struct{ name, found string }{
	{"dir-manifest-v1", "manifest version 1"},
	{"dir-segment-format1", "segment 1 in format 1"},
	{"dir-stats-block", "294-byte statistics block"},
}

// readTree maps every path under root to its bytes (nil for a directory).
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[p] = nil
			return err
		}
		tree[p], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOpenDurableRefusesLegacy holds OpenDurable closed in front of what
// an earlier release could have left at a collection path: a snapshot
// file, (after a crash in its in-place migration) nothing but a complete
// staging directory beside it, and a durable directory in an older
// layout. Each error wraps vstore.ErrOlderLayout, names the fix (for a
// snapshot file, the import of an earlier release: this one has none),
// does not read as "not found", and nothing is created, changed or
// removed, even when Dims would permit a fresh start.
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
	cases := []struct{ path, fix, found string }{
		{snap, "`bondgen -import " + snap + " -out <dir>` built from an earlier release", ""},
		{staged, "mv " + staged + migratingSuffix + " " + staged, ""},
	}
	for _, od := range olderDirs {
		path := filepath.Join(dir, od.name)
		if err := os.CopyFS(path, os.DirFS(filepath.Join("testdata", "legacy", od.name))); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ path, fix, found string }{path, "call Collection.Checkpoint", od.found})
	}
	before := readTree(t, dir)
	for _, tc := range cases {
		for _, dims := range []int{0, 6} {
			_, err := OpenDurable(tc.path, DurableOptions{Dims: dims})
			if !errors.Is(err, vstore.ErrOlderLayout) || !strings.Contains(err.Error(), tc.fix) ||
				!strings.Contains(err.Error(), tc.found) || errors.Is(err, os.ErrNotExist) {
				t.Fatalf("OpenDurable(%s, dims %d) = %v, want an error naming %q and %q", tc.path, dims, err, tc.found, tc.fix)
			}
		}
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused opens changed the directory:\n%v\nwant\n%v", after, before)
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

// TestOpenDurableOlderStatsBlock splices a statistics block, as releases
// with a learned cost model wrote it, into the MANIFEST of a directory
// this release checkpointed: OpenDurable refuses it with an error naming
// the block's size and the fix, leaves the directory as it was, and the
// same directory with the block taken out again opens.
func TestOpenDurableOlderStatsBlock(t *testing.T) {
	dir, _, _ := buildMmapFixture(t, 300, 8, 100, 5)
	path := filepath.Join(dir, vstore.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withStatsBlock(raw, 52, 4, []byte(olderStatsBlock)), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	found := fmt.Sprintf("%d-byte statistics block", len(olderStatsBlock))
	for _, dims := range []int{0, 8} {
		_, err := OpenDurable(dir, DurableOptions{Dims: dims})
		if err == nil || !strings.Contains(err.Error(), found) ||
			!strings.Contains(err.Error(), "call Collection.Checkpoint") || errors.Is(err, os.ErrNotExist) {
			t.Fatalf("OpenDurable(dims %d) = %v, want an error naming %q and the checkpoint fix", dims, err, found)
		}
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused open changed the directory")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("directory with an empty statistics block: %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}
