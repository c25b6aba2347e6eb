package bond

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
