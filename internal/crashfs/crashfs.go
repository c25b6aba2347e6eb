// Package crashfs holds the test filesystems: MemFS, an in-memory
// iofs.FS, and FS, a deterministic crash-injection filesystem over it for
// recovery testing, whose durability-relevant operations consume a fixed
// budget of "steps", crashing the simulated process at an exactly chosen
// point. Only tests import it; the server never links it.
//
// Every byte written costs one step, and every metadata operation
// (create, rename, remove, truncate, fsync) costs one step, so a budget
// sweep from 0 to the total step count kills the store at every byte
// boundary of every file it writes — including mid-record in the WAL,
// mid-column in a segment file, between a manifest's tmp write and its
// rename, and on either side of every fsync. A write that runs out of
// budget applies a prefix of its bytes and then trips the crash, so torn
// writes are produced, not just missing ones.
//
// After the crash trips, every operation fails with ErrCrashed — the
// process is dead. The test then calls Survivor to obtain the disk as
// the next process boot would see it: with PowerLoss, every file is
// truncated to its last-fsynced length (the page cache died with the
// machine); with ProcessCrash, completed writes survive. Recovery runs
// against the survivor with no budget.
package crashfs

import (
	"errors"
	"sync"

	"bond/internal/iofs"
)

// ErrCrashed is returned by every operation after the injected crash
// point has been reached.
var ErrCrashed = errors.New("crashfs: injected crash")

// Mode selects what survives the crash.
type Mode int

const (
	// ProcessCrash models SIGKILL: every write that completed before the
	// crash survives (it is in the kernel's page cache), synced or not.
	ProcessCrash Mode = iota
	// PowerLoss models the machine dying: only bytes fsynced before the
	// crash survive; each file is truncated to its last-synced length.
	PowerLoss
)

// FS is the fault-injecting filesystem. Create one with New; a negative
// budget disables injection (useful for the dry run that measures the
// total step count of a workload).
type FS struct {
	mu      sync.Mutex
	mem     *MemFS
	budget  int64 // remaining steps; <0 = unlimited
	used    int64
	crashed bool
}

// New returns a crash-injecting FS over empty in-memory storage that
// trips after budget steps (bytes written + metadata operations). A
// negative budget never trips.
func New(budget int64) *FS {
	return NewFrom(NewMemFS(), budget)
}

// NewFrom returns a crash-injecting FS over an existing in-memory disk
// image — for sweeping crash points through recovery itself, starting
// from the survivor of an earlier crash.
func NewFrom(mem *MemFS, budget int64) *FS {
	return &FS{mem: mem, budget: budget}
}

// Steps reports how many steps the workload has consumed so far. Run the
// workload once with a negative budget to measure the sweep range.
func (f *FS) Steps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

// Crashed reports whether the injected crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Survivor returns the disk state a reboot would observe, as a plain
// in-memory FS with no fault injection.
func (f *FS) Survivor(mode Mode) *MemFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mem.Clone(mode == PowerLoss)
}

// Mem exposes the backing store for instrumentation (create counts,
// byte-stability checks) — read-only use.
func (f *FS) Mem() *MemFS { return f.mem }

// step consumes n steps, returning how many were granted before the
// crash tripped (n when it did not).
func (f *FS) step(n int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0
	}
	if f.budget < 0 {
		f.used += n
		return n
	}
	if n <= f.budget {
		f.budget -= n
		f.used += n
		return n
	}
	granted := f.budget
	f.used += granted
	f.budget = 0
	f.crashed = true
	return granted
}

// meta runs a 1-step metadata operation, or reports the crash.
func (f *FS) meta(op func() error) error {
	if f.Crashed() {
		return ErrCrashed
	}
	if f.step(1) < 1 {
		return ErrCrashed
	}
	return op()
}

// MkdirAll implements iofs.FS. Directory creation is free: it carries no
// recoverable data, and charging it would only shift every later crash
// point without adding coverage.
func (f *FS) MkdirAll(dir string) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.mem.MkdirAll(dir)
}

// Create implements iofs.FS.
func (f *FS) Create(name string) (iofs.File, error) {
	if err := f.meta(func() error { return nil }); err != nil {
		return nil, err
	}
	h, err := f.mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &handle{fs: f, h: h}, nil
}

// Append implements iofs.FS.
func (f *FS) Append(name string) (iofs.File, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	if _, err := f.mem.Stat(name); err != nil {
		// Creating the file is a metadata step; opening an existing one
		// is free.
		if f.step(1) < 1 {
			return nil, ErrCrashed
		}
	}
	h, err := f.mem.Append(name)
	if err != nil {
		return nil, err
	}
	return &handle{fs: f, h: h}, nil
}

// ReadFile implements iofs.FS. Reads are free — crash points are about
// durability events — but fail once the process is dead.
func (f *FS) ReadFile(name string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.mem.ReadFile(name)
}

// Rename implements iofs.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	return f.meta(func() error { return f.mem.Rename(oldpath, newpath) })
}

// Remove implements iofs.FS.
func (f *FS) Remove(name string) error {
	return f.meta(func() error { return f.mem.Remove(name) })
}

// RemoveAll implements iofs.FS.
func (f *FS) RemoveAll(name string) error {
	return f.meta(func() error { return f.mem.RemoveAll(name) })
}

// Truncate implements iofs.FS.
func (f *FS) Truncate(name string, size int64) error {
	return f.meta(func() error { return f.mem.Truncate(name, size) })
}

// ReadDir implements iofs.FS.
func (f *FS) ReadDir(dir string) ([]string, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.mem.ReadDir(dir)
}

// Stat implements iofs.FS.
func (f *FS) Stat(name string) (iofs.FileInfo, error) {
	if f.Crashed() {
		return iofs.FileInfo{}, ErrCrashed
	}
	return f.mem.Stat(name)
}

// SyncDir implements iofs.FS: one metered durability event (a crash can
// land on either side of a directory fsync), though the in-memory model
// itself treats metadata as durable at operation time.
func (f *FS) SyncDir(dir string) error {
	return f.meta(func() error { return f.mem.SyncDir(dir) })
}

// handle meters writes and syncs through the crash budget.
type handle struct {
	fs *FS
	h  iofs.File
}

// Write applies as many bytes as the budget allows; a short grant
// produces a genuinely torn write and trips the crash.
func (h *handle) Write(p []byte) (int, error) {
	if h.fs.Crashed() {
		return 0, ErrCrashed
	}
	granted := h.fs.step(int64(len(p)))
	if granted > 0 {
		if n, err := h.h.Write(p[:granted]); err != nil {
			return n, err
		}
	}
	if granted < int64(len(p)) {
		return int(granted), ErrCrashed
	}
	return len(p), nil
}

func (h *handle) Sync() error {
	if h.fs.Crashed() {
		return ErrCrashed
	}
	if h.fs.step(1) < 1 {
		return ErrCrashed
	}
	return h.h.Sync()
}

func (h *handle) Close() error {
	// Closing is free and allowed after the crash: the dying process's
	// descriptors are closed by the kernel either way.
	return h.h.Close()
}
