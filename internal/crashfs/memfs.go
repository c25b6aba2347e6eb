package crashfs

import (
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
	"sync"

	"bond/internal/iofs"
)

// MemFS is an in-memory iofs.FS for tests: fast, hermetic, and
// instrumented. It is the disk under FS, and tests use it on its own where
// no crash is injected. Beyond file content it tracks, per file, how many bytes have been
// "fsynced" (everything up to the last Sync on a handle) and how many
// times the file has been created — the counters the durability tests
// use to prove sealed-segment files are written exactly once and that
// the manifest protocol syncs before it renames.
//
// Paths are cleaned with path.Clean; a parent directory is implied by
// the files under it (MkdirAll also registers explicit directories, so
// Stat on a fresh empty directory works).
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	creates map[string]int
}

type memFile struct {
	data   []byte
	synced int // bytes guaranteed durable across a power loss
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   map[string]*memFile{},
		dirs:    map[string]bool{"/": true, ".": true},
		creates: map[string]int{},
	}
}

func clean(name string) string { return path.Clean(name) }

func notExist(op, name string) error {
	return fmt.Errorf("%s %s: %w", op, name, os.ErrNotExist)
}

// MkdirAll implements iofs.FS.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mkdirAllLocked(clean(dir))
	return nil
}

func (m *MemFS) mkdirAllLocked(dir string) {
	for d := dir; d != "/" && d != "." && d != ""; d = path.Dir(d) {
		m.dirs[d] = true
	}
}

// Create implements iofs.FS.
func (m *MemFS) Create(name string) (iofs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	m.mkdirAllLocked(path.Dir(name))
	m.files[name] = &memFile{}
	m.creates[name]++
	return &memHandle{fs: m, name: name}, nil
}

// Append implements iofs.FS.
func (m *MemFS) Append(name string) (iofs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if m.files[name] == nil {
		m.mkdirAllLocked(path.Dir(name))
		m.files[name] = &memFile{}
		m.creates[name]++
	}
	return &memHandle{fs: m, name: name}, nil
}

// ReadFile implements iofs.FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[clean(name)]
	if f == nil {
		return nil, notExist("read", name)
	}
	return append([]byte(nil), f.data...), nil
}

// ReadFileRange implements iofs.RangeFS.
func (m *MemFS) ReadFileRange(name string, off, n int64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[clean(name)]
	if f == nil {
		return nil, notExist("read", name)
	}
	if off >= int64(len(f.data)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(f.data)) {
		end = int64(len(f.data))
	}
	return append([]byte(nil), f.data[off:end]...), nil
}

// Rename implements iofs.FS. Renaming a directory moves everything below it.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = clean(oldpath), clean(newpath)
	if f := m.files[oldpath]; f != nil {
		delete(m.files, oldpath)
		m.mkdirAllLocked(path.Dir(newpath))
		m.files[newpath] = f
		// A rename materializes content at the target path: count it as a
		// creation there, so atomic tmp+rename writes show up in
		// CreateCount under the name callers actually read.
		m.creates[newpath]++
		return nil
	}
	if !m.dirs[oldpath] {
		return notExist("rename", oldpath)
	}
	prefix := oldpath + "/"
	for name, f := range m.files {
		if strings.HasPrefix(name, prefix) {
			delete(m.files, name)
			m.files[newpath+"/"+name[len(prefix):]] = f
		}
	}
	for d := range m.dirs {
		if strings.HasPrefix(d, prefix) {
			delete(m.dirs, d)
			m.dirs[newpath+"/"+d[len(prefix):]] = true
		}
	}
	delete(m.dirs, oldpath)
	m.mkdirAllLocked(newpath)
	return nil
}

// Remove implements iofs.FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if m.files[name] != nil {
		delete(m.files, name)
		return nil
	}
	if m.dirs[name] {
		delete(m.dirs, name)
		return nil
	}
	return notExist("remove", name)
}

// RemoveAll implements iofs.FS.
func (m *MemFS) RemoveAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	delete(m.files, name)
	delete(m.dirs, name)
	prefix := name + "/"
	for n := range m.files {
		if strings.HasPrefix(n, prefix) {
			delete(m.files, n)
		}
	}
	for d := range m.dirs {
		if strings.HasPrefix(d, prefix) {
			delete(m.dirs, d)
		}
	}
	return nil
}

// Truncate implements iofs.FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[clean(name)]
	if f == nil {
		return notExist("truncate", name)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("truncate %s: bad size %d", name, size)
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// ReadDir implements iofs.FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	seen := map[string]bool{}
	prefix := dir + "/"
	if dir == "." || dir == "/" {
		prefix = ""
	}
	found := m.dirs[dir]
	for name := range m.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
		found = true
	}
	for d := range m.dirs {
		if !strings.HasPrefix(d, prefix) || d == dir {
			continue
		}
		rest := d[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	if !found {
		return nil, notExist("readdir", dir)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements iofs.FS.
func (m *MemFS) Stat(name string) (iofs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	if f := m.files[name]; f != nil {
		return iofs.FileInfo{Size: int64(len(f.data))}, nil
	}
	if m.dirs[name] {
		return iofs.FileInfo{IsDir: true}, nil
	}
	// A directory implied by files under it.
	prefix := name + "/"
	for n := range m.files {
		if strings.HasPrefix(n, prefix) {
			return iofs.FileInfo{IsDir: true}, nil
		}
	}
	return iofs.FileInfo{}, notExist("stat", name)
}

// SyncDir implements iofs.FS. MemFS models metadata operations as durable
// the moment they execute (the crash-injection layer charges them
// against its budget instead), so this is a no-op.
func (m *MemFS) SyncDir(string) error { return nil }

// CreateCount reports how many times name has been created (Create, or
// Append on a missing file) over the filesystem's lifetime — the
// write-once instrumentation for sealed segment files.
func (m *MemFS) CreateCount(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.creates[clean(name)]
}

// Clone returns an independent deep copy of the filesystem. When
// powerLoss is set, every file is truncated to its last fsynced length,
// modeling the page cache dying with the machine; without it the copy
// models a process crash, where completed writes survive in the page
// cache.
func (m *MemFS) Clone(powerLoss bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for name, f := range m.files {
		data := f.data
		if powerLoss {
			data = data[:f.synced]
		}
		c.files[name] = &memFile{data: append([]byte(nil), data...), synced: f.synced}
		if powerLoss && c.files[name].synced > len(c.files[name].data) {
			c.files[name].synced = len(c.files[name].data)
		}
	}
	for d := range m.dirs {
		c.dirs[d] = true
	}
	return c
}

// syncFile marks every currently written byte of name durable.
func (m *MemFS) syncFile(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.files[name]; f != nil {
		f.synced = len(f.data)
	}
}

// writeFile appends p to name, returning the new length.
func (m *MemFS) writeFile(name string, p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return 0, notExist("write", name)
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (h *memHandle) Write(p []byte) (int, error) { return h.fs.writeFile(h.name, p) }
func (h *memHandle) Sync() error                 { h.fs.syncFile(h.name); return nil }
func (h *memHandle) Close() error                { return nil }
