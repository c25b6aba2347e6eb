package bond

import (
	"bytes"
	"path/filepath"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
	"bond/internal/vstore"
)

// buildV1LayoutDir checkpoints a small collection, then rewrites its
// sealed segment files into the v1 flat-store encoding and patches the
// manifest's per-segment formats to match — reproducing, byte for byte,
// the directory layout the pre-mmap version of this package wrote. The
// returned dump is the collection's logical state.
func buildV1LayoutDir(t *testing.T) (*crashfs.MemFS, collectionDump) {
	t.Helper()
	fs := crashfs.NewMemFS()
	col, err := OpenDurable("col", DurableOptions{
		FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, 23)
	for i := range vecs {
		vecs[i] = []float64{float64(i) / 23, float64(i%7) / 7, float64(i%3) / 3}
	}
	if _, err := col.AddBatchDurable(vecs); err != nil {
		t.Fatal(err)
	}
	if _, err := col.TryDeleteDurable(4); err != nil {
		t.Fatal(err)
	}
	if err := col.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if err := col.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpCollection(col)
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	manPath := filepath.Join("col", vstore.ManifestName)
	raw, err := fs.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vstore.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("fixture produced no sealed segments")
	}
	rewrite := func(name string, b []byte) {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		// Sync: the rewritten file is the fixture's starting state, which
		// the power-loss survivor otherwise truncates to its synced length.
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range m.Segments {
		segPath := filepath.Join("col", vstore.SegFileName(m.Segments[i].ID))
		img, err := fs.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := vstore.DecodeSegmentV2(img)
		if err != nil {
			t.Fatal(err)
		}
		var v1 bytes.Buffer
		if err := st.Save(&v1); err != nil {
			t.Fatal(err)
		}
		rewrite(segPath, v1.Bytes())
		m.Segments[i].Format = vstore.SegFormatV1
	}
	rewrite(manPath, vstore.EncodeManifest(m))
	return fs, want
}

// migrationSegFormats reads back which encodings the directory's sealed
// segment files are in.
func migrationSegFormats(t *testing.T, fs iofs.FS) (v1, v2 int) {
	t.Helper()
	raw, err := fs.ReadFile(filepath.Join("col", vstore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := vstore.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range m.Segments {
		img, err := fs.ReadFile(filepath.Join("col", vstore.SegFileName(sg.ID)))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sg.Format == vstore.SegFormatV2 && vstore.IsSegmentV2(img):
			v2++
		case sg.Format == vstore.SegFormatV1 && !vstore.IsSegmentV2(img):
			v1++
		default:
			t.Fatalf("segment %d: manifest format %d disagrees with file bytes", sg.ID, sg.Format)
		}
	}
	return v1, v2
}

// TestV1MigrationCheckpointCrashMatrix sweeps crash injection across the
// checkpoint that migrates a pre-mmap directory — v1 flat-store sealed
// segment files — to write-once v2 column files. At every crash point,
// on both power-loss and process-crash semantics, recovery must succeed
// and yield exactly the original data: the migration is purely
// representational, so not a single vector or tombstone may move. After
// the clean run the directory must be fully v2 and open memory-mapped.
func TestV1MigrationCheckpointCrashMatrix(t *testing.T) {
	base, want := buildV1LayoutDir(t)

	if v1, v2 := migrationSegFormats(t, base); v1 == 0 || v2 != 0 {
		t.Fatalf("fixture not v1-only: %d v1, %d v2 segments", v1, v2)
	}

	migrate := func(fs *crashfs.FS) error {
		c, err := OpenDurable("col", DurableOptions{
			FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
		})
		if err != nil {
			return err
		}
		if err := c.Checkpoint(); err != nil {
			c.Close()
			return err
		}
		return c.Close()
	}

	// Dry run: unlimited budget measures the sweep range and proves the
	// checkpoint actually migrates.
	dry := crashfs.NewFrom(base.Clone(false), -1)
	if err := migrate(dry); err != nil {
		t.Fatalf("dry migration: %v", err)
	}
	if v1, v2 := migrationSegFormats(t, dry.Mem()); v1 != 0 || v2 == 0 {
		t.Fatalf("checkpoint left %d v1 segments (%d v2)", v1, v2)
	}
	total := dry.Steps()
	t.Logf("sweeping %d crash points across the migration checkpoint", total)

	for budget := int64(0); budget < total; budget++ {
		fs := crashfs.NewFrom(base.Clone(false), budget)
		if err := migrate(fs); err == nil {
			t.Fatalf("budget %d: crash did not surface", budget)
		}
		if !fs.Crashed() {
			t.Fatalf("budget %d: crash did not trip", budget)
		}
		for _, mode := range []crashfs.Mode{crashfs.PowerLoss, crashfs.ProcessCrash} {
			rec, err := OpenDurable("col", DurableOptions{
				FS: fs.Survivor(mode), Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
			})
			if err != nil {
				t.Fatalf("budget %d (%v): recovery failed: %v", budget, mode, err)
			}
			got := dumpCollection(rec)
			rec.Close()
			if !sameDump(got, want) {
				t.Fatalf("budget %d (%v): migration crash changed the data", budget, mode)
			}
		}
	}

	// The migrated directory serves the mmap fast path: reopen on the
	// real filesystem image and confirm segments map. (MemFS cannot map;
	// round-trip the bytes through a real directory.)
	real := t.TempDir()
	dirFiles, err := dry.Mem().ReadDir("col")
	if err != nil {
		t.Fatal(err)
	}
	osfs := iofs.OS{}
	target := filepath.Join(real, "col.bond")
	if err := osfs.MkdirAll(target); err != nil {
		t.Fatal(err)
	}
	for _, name := range dirFiles {
		b, err := dry.Mem().ReadFile(filepath.Join("col", name))
		if err != nil {
			t.Fatal(err)
		}
		f, err := osfs.Create(filepath.Join(target, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	col, err := OpenDurable(target, DurableOptions{})
	if err != nil {
		t.Fatalf("migrated directory fails to open from disk: %v", err)
	}
	defer col.Close()
	if st := col.StatsSnapshot(); st.MappedBytes == 0 {
		t.Skip("platform cannot memory-map segment files")
	}
	if got := dumpCollection(col); !sameDump(got, want) {
		t.Fatal("mapped reopen of migrated directory diverged")
	}
}
