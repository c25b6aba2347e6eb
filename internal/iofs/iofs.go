// Package iofs is the storage layer's injectable I/O seam: the small
// filesystem surface the durability code (write-ahead log, incremental
// checkpoints) performs all its I/O through. Production code uses OS,
// which maps one-to-one onto the os package; tests substitute the
// in-memory and fault-injecting implementations of package crashfs to
// drive the recovery protocol across every possible crash point without
// touching a real disk.
//
// The interface is deliberately minimal — sequential writes, whole-file
// reads, atomic rename — because those are the only primitives the
// recovery protocol's correctness argument relies on. Rename is assumed
// atomic (it is on every POSIX filesystem bondd targets); a write is
// assumed durable only after Sync returns.
package iofs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bond/internal/mmap"
)

// File is a sequentially writable file handle. Data written is durable
// against power loss only after Sync returns; a process crash (without
// power loss) preserves completed writes regardless.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the handle without an implied Sync.
	Close() error
}

// FS is the filesystem surface the durability layer writes through.
// Paths are opaque slash-joined strings; implementations must return
// errors satisfying errors.Is(err, os.ErrNotExist) for missing paths so
// callers can distinguish absence from corruption.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it when absent.
	Append(name string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (or empty directory).
	Remove(name string) error
	// RemoveAll deletes name and everything below it; absent is not an
	// error.
	RemoveAll(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// ReadDir lists the names (not paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
	// Stat describes name.
	Stat(name string) (FileInfo, error)
	// SyncDir makes dir's entries (file creations, renames, removals)
	// durable. On POSIX, fsyncing a file makes its *data* durable but not
	// its directory entry; without this, a freshly created WAL or a
	// renamed manifest can vanish wholesale in a power loss even though
	// its bytes were fsynced.
	SyncDir(dir string) error
}

// FileInfo is the subset of os.FileInfo the durability layer consults.
type FileInfo struct {
	Size  int64
	IsDir bool
}

// RangeFS is the optional windowed-read extension of FS: filesystems
// that can serve a byte range without materializing the whole file
// implement it (OS via pread, crashfs.MemFS by slicing under its lock),
// and ReadFileRange type-asserts for it. The replication stream reads
// bounded windows of potentially large WAL files on every follower
// poll; without this seam each poll would be O(file size) in I/O and
// allocation.
type RangeFS interface {
	// ReadFileRange returns up to n bytes of name starting at byte
	// offset off. A result shorter than n (possibly empty) means the
	// file ends before off+n; an offset at or past the end is not an
	// error. n must be non-negative.
	ReadFileRange(name string, off, n int64) ([]byte, error)
}

// ReadFileRange reads the window [off, off+n) of name through fs,
// using the RangeFS fast path when available and falling back to a
// whole-file read otherwise (the fault-injecting test filesystems wrap
// FS without the extension and take the fallback, so both paths keep
// identical semantics).
func ReadFileRange(fs FS, name string, off, n int64) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if rfs, ok := fs.(RangeFS); ok {
		return rfs.ReadFileRange(name, off, n)
	}
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if off >= int64(len(data)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return append([]byte(nil), data[off:end]...), nil
}

// MapFS is the optional mapping extension of FS: filesystems that can
// memory-map a file implement it (the real OS filesystem, on platforms
// package mmap supports), and the segment loader type-asserts for it.
// Filesystems that cannot — package crashfs's in-memory and
// crash-injecting ones, or OS on an unsupported platform — simply don't,
// and the loader falls back to ReadFile-into-heap, so every recovery path
// is exercised identically on both backings.
type MapFS interface {
	// MapFile maps name read-only and returns the mapping, which aliases
	// the file's pages until UnmapFile releases it. An empty file maps to
	// a nil slice.
	MapFile(name string) ([]byte, error)
	// UnmapFile releases a mapping returned by MapFile.
	UnmapFile(b []byte) error
}

// OS is the production FS: a direct mapping onto the os package.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Append implements FS.
func (OS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadFileRange implements RangeFS with one pread-sized allocation.
func (OS) ReadFileRange(name string, off, n int64) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:m], nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll implements FS.
func (OS) RemoveAll(name string) error { return os.RemoveAll(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// Stat implements FS.
func (OS) Stat(name string) (FileInfo, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Size: fi.Size(), IsDir: fi.IsDir()}, nil
}

// MapFile implements MapFS via package mmap. On platforms without mmap
// support it returns mmap.ErrUnsupported and callers fall back to
// ReadFile.
func (OS) MapFile(name string) ([]byte, error) {
	if !mmap.Supported() {
		return nil, mmap.ErrUnsupported
	}
	return mmap.Map(name)
}

// UnmapFile implements MapFS.
func (OS) UnmapFile(b []byte) error { return mmap.Unmap(b) }

// SyncDir implements FS: open the directory and fsync it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes name through a temporary sibling: create
// name.tmp, stream the content, fsync, close, rename over name. After a
// crash at any point the old content of name is either fully intact or
// fully replaced — never a torn mixture — which is the commit primitive
// the manifest protocol builds on. The fsync before the rename is what
// makes the guarantee hold under power loss, not just process death.
func WriteFileAtomic(fs FS, name string, write func(io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fail := func(err error) error {
		f.Close()
		_ = fs.Remove(tmp)
		return fmt.Errorf("iofs: write %s: %w", name, err)
	}
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("iofs: write %s: %w", name, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("iofs: write %s: %w", name, err)
	}
	// Make the rename itself durable: the file's bytes are synced, but
	// its directory entry is not until the directory is.
	if err := fs.SyncDir(filepath.Dir(name)); err != nil {
		return fmt.Errorf("iofs: write %s: %w", name, err)
	}
	return nil
}
