package bond

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
)

// flakyFS wraps a MemFS and, while tripped, fails every write and sync
// on WAL files — a transient ENOSPC-style fault confined to the log.
type flakyFS struct {
	*crashfs.MemFS
	failWAL atomic.Bool
}

var errDiskFull = errors.New("flakyfs: no space left on device")

func (f *flakyFS) Create(name string) (iofs.File, error) {
	h, err := f.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: h, fs: f, wal: strings.Contains(name, "wal-")}, nil
}

func (f *flakyFS) Append(name string) (iofs.File, error) {
	h, err := f.MemFS.Append(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: h, fs: f, wal: strings.Contains(name, "wal-")}, nil
}

type flakyFile struct {
	iofs.File
	fs  *flakyFS
	wal bool
}

func (h *flakyFile) Write(p []byte) (int, error) {
	if h.wal && h.fs.failWAL.Load() {
		return 0, errDiskFull
	}
	return h.File.Write(p)
}

func (h *flakyFile) Sync() error {
	if h.wal && h.fs.failWAL.Load() {
		return errDiskFull
	}
	return h.File.Sync()
}

// TestCheckpointSelfHealsAfterLogFailure: a transient log failure (disk
// full) rejects mutations — correctly, none are acknowledged — and once
// the fault clears, the next Checkpoint writes the consistent in-memory
// state past the broken log and the collection accepts writes again, no
// restart needed. Durability of the survivors is verified by a reopen.
func TestCheckpointSelfHealsAfterLogFailure(t *testing.T) {
	fs := &flakyFS{MemFS: crashfs.NewMemFS()}
	c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: 2, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDurable([]float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}

	fs.failWAL.Store(true)
	if _, err := c.AddDurable([]float64{0.3, 0.4}); err == nil {
		t.Fatal("write during disk failure was acknowledged")
	}
	fs.failWAL.Store(false)
	// The writer's error is sticky: still rejecting, even though the
	// disk recovered…
	if _, err := c.AddDurable([]float64{0.5, 0.6}); err == nil {
		t.Fatal("sticky log error did not reject the follow-up write")
	}
	// …until a checkpoint supersedes the broken log.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("recovery checkpoint: %v", err)
	}
	id, err := c.AddDurable([]float64{0.7, 0.8})
	if err != nil {
		t.Fatalf("write after recovery checkpoint: %v", err)
	}
	if id != 1 || c.Len() != 2 {
		t.Fatalf("post-recovery shape: id %d len %d (rejected writes must not occupy slots)", id, c.Len())
	}
	want := dumpCollection(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable("col", DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := dumpCollection(r); !sameDump(got, want) {
		t.Fatalf("reopen after log-failure recovery diverged:\n got %+v\nwant %+v", got, want)
	}
}
