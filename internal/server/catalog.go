// Package server implements bondd's serving layer: a concurrent
// multi-collection catalog over durable bond.Collection instances, an
// HTTP JSON API that maps onto QuerySpec/QueryBatch, a background
// maintenance loop (threshold-triggered compaction plus WAL-bounding
// checkpoints), and bounded in-flight query admission.
//
// The package owns no search logic and no durability logic: every
// request lowers onto the public bond API (Query, QueryBatch,
// QueryExplain, Checkpoint and the error-returning mutators
// AddBatchDurable, TryDeleteDurable, CompactRatioDurable and
// ReclusterDurable, the same ones in-process callers use), so answers
// served over HTTP are byte-identical to in-process calls, every
// acknowledged write is WAL-logged before its 2xx goes out, and the
// collection's RWMutex contract is the only synchronization the data
// path needs. The catalog adds one more lock above it — a map-level
// RWMutex serializing create/open/drop against lookups, with per-name
// single-flight on cold loads so two requests can never race a WAL open
// — and the maintenance loop runs entirely through exported Collection
// methods, so it is just another writer.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bond"
	"bond/internal/api"
	"bond/internal/iofs"
)

// collectionExt is the on-disk suffix of a catalog collection: a durable
// directory in the incremental checkpoint + WAL layout. A snapshot *file*
// of an earlier release under the same name is refused (OpenDurable's
// error names `bondgen -import` of an earlier release, which converts it
// offline), and the API answers it 409 older_layout.
const collectionExt = ".bond"

// migratingExt follows collectionExt on the staging directory of an
// earlier release's in-place migration. A name whose only trace is one is
// listed, answers 409 older_layout (OpenDurable names the rename that
// finishes the migration), and is deleted by DELETE.
const migratingExt = ".migrating"

// Errors the catalog returns; the HTTP layer maps them onto status codes.
// Names follow api.ValidName: the HTTP layer refuses a bad one before it
// gets here, and the catalog checks again because replication passes it
// names from the leader.
var (
	ErrNotFound = api.ErrNotFound
	ErrBadName  = api.ErrBadName
	ErrBadShape = fmt.Errorf("server: invalid collection shape")
	ErrExists   = fmt.Errorf("server: collection exists with different shape")
)

// Catalog is a concurrent, lazily loaded set of named durable
// collections backed by one data directory. Lookups take a read lock on
// the name map; create, first-touch load, and drop serialize per name.
// The collections themselves carry their own RWMutex and WAL, so catalog
// lock hold times stay off the query path: a Get is one map read in
// steady state.
type Catalog struct {
	dir         string
	segSize     int              // default seal threshold for new collections (0 = library default)
	fsync       bond.FsyncPolicy // WAL policy every collection opens with
	disableMmap bool             // open with heap-decoded segments instead of mappings

	// probeFS is the filesystem the readiness probe writes through —
	// iofs.OS in production, injectable so tests can fail it without
	// needing an actually broken disk.
	probeFS iofs.FS

	mu      sync.RWMutex
	cols    map[string]*bond.Collection
	loading map[string]chan struct{} // per-name single-flight for cold opens

	// ckptMu serializes checkpoint sweeps (CheckpointLoaded) against each
	// other and against Drop: a checkpoint finishing after a Drop would
	// recreate files inside the removed directory, resurrecting the
	// dropped collection on disk.
	ckptMu sync.Mutex
}

// NewCatalog opens a catalog over dir, creating the directory if needed.
// Collections already on disk are not loaded eagerly; the first Get or
// Create that names one loads it (replaying its WAL tail).
func NewCatalog(dir string, segSize int, fsync bond.FsyncPolicy, disableMmap bool) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Catalog{
		dir:         dir,
		segSize:     segSize,
		fsync:       fsync,
		disableMmap: disableMmap,
		probeFS:     iofs.OS{},
		cols:        map[string]*bond.Collection{},
		loading:     map[string]chan struct{}{},
	}, nil
}

// Ready reports whether the catalog can acknowledge writes: the data
// directory accepts a freshly written file (through the iofs seam, so a
// full or read-only disk fails here rather than on the next ingest) and
// every loaded collection's WAL is appendable. It is the substance
// behind GET /readyz.
func (c *Catalog) Ready() error {
	probe := filepath.Join(c.dir, ".readyz-probe")
	f, err := c.probeFS.Create(probe)
	if err != nil {
		return fmt.Errorf("server: data dir not writable: %w", err)
	}
	_, werr := f.Write([]byte("ok"))
	cerr := f.Close()
	_ = c.probeFS.Remove(probe)
	if werr != nil {
		return fmt.Errorf("server: data dir not writable: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("server: data dir not writable: %w", cerr)
	}
	for name, col := range c.Loaded() {
		if err := col.ProbeWAL(); err != nil {
			return fmt.Errorf("server: collection %q cannot append to its WAL: %w", name, err)
		}
	}
	return nil
}

func (c *Catalog) path(name string) string {
	return filepath.Join(c.dir, name+collectionExt)
}

// claimSlot claims the per-name single-flight slot unconditionally,
// waiting out any in-progress load. When stopIfLoaded is set and the
// collection materializes first, it is returned instead and the slot is
// NOT held. Callers holding the slot must call releaseName.
func (c *Catalog) claimSlot(name string, stopIfLoaded bool) (*bond.Collection, bool) {
	for {
		c.mu.Lock()
		if stopIfLoaded {
			if col := c.cols[name]; col != nil {
				c.mu.Unlock()
				return col, false
			}
		}
		ch, busy := c.loading[name]
		if !busy {
			c.loading[name] = make(chan struct{})
			c.mu.Unlock()
			return nil, true
		}
		c.mu.Unlock()
		<-ch
	}
}

// acquireName claims the single-flight slot for name unless the
// collection is already loaded, in which case it is returned directly.
func (c *Catalog) acquireName(name string) (*bond.Collection, bool) {
	return c.claimSlot(name, true)
}

func (c *Catalog) releaseName(name string) {
	c.mu.Lock()
	ch := c.loading[name]
	delete(c.loading, name)
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// open opens or creates the durable collection for name; dims > 0
// permits creation.
func (c *Catalog) open(name string, dims, segSize int) (*bond.Collection, error) {
	if segSize <= 0 {
		segSize = c.segSize
	}
	return bond.OpenDurable(c.path(name), bond.DurableOptions{
		Dims:        dims,
		SegmentSize: segSize,
		Fsync:       c.fsync,
		DisableMmap: c.disableMmap,
	})
}

// Get returns the named collection, loading it from disk on first touch
// (WAL replay included). It returns ErrNotFound when the name is neither
// loaded nor on disk. The disk load runs outside the catalog's map lock
// — one slow cold open does not stall requests to already-loaded
// collections — but under a per-name single-flight slot, because two
// concurrent opens of one WAL would corrupt it.
func (c *Catalog) Get(name string) (*bond.Collection, error) {
	if !api.ValidName(name) {
		return nil, ErrBadName
	}
	c.mu.RLock()
	col := c.cols[name]
	c.mu.RUnlock()
	if col != nil {
		return col, nil
	}
	col, mine := c.acquireName(name)
	if !mine {
		return col, nil
	}
	defer c.releaseName(name)
	col, err := c.open(name, 0, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-stat under the lock: a Drop while we were loading removed the
	// tree (Drop waits for the loading slot only on entry, but it cannot
	// start while we hold the slot — this guards the inverse order,
	// where the drop finished before we acquired). If the files are
	// gone, inserting our copy would resurrect the dropped collection.
	if _, statErr := os.Stat(c.path(name)); statErr != nil {
		col.Close()
		return nil, ErrNotFound
	}
	c.cols[name] = col
	return col, nil
}

// Create creates the named durable collection with the given
// dimensionality (and optional segment size; 0 uses the catalog default)
// — the initial checkpoint and empty WAL hit disk before the call
// returns, so the name survives a crash. Creating a name that already
// exists is idempotent when the dimensionality matches — the existing
// collection is returned with created=false — and ErrExists when it does
// not.
func (c *Catalog) Create(name string, dims, segSize int) (col *bond.Collection, created bool, err error) {
	if !api.ValidName(name) {
		return nil, false, ErrBadName
	}
	if dims < 1 {
		return nil, false, fmt.Errorf("%w: dims must be >= 1, got %d", ErrBadShape, dims)
	}
	existing, mine := c.acquireName(name)
	if !mine {
		if existing.Dims() != dims {
			return nil, false, fmt.Errorf("%w: %q has %d dims, requested %d", ErrExists, name, existing.Dims(), dims)
		}
		return existing, false, nil
	}
	defer c.releaseName(name)
	_, statErr := os.Stat(c.path(name))
	preexisting := statErr == nil
	col, err = c.open(name, dims, segSize)
	if err != nil {
		return nil, false, err
	}
	if col.Dims() != dims {
		col.Close()
		return nil, false, fmt.Errorf("%w: %q has %d dims, requested %d", ErrExists, name, col.Dims(), dims)
	}
	c.mu.Lock()
	c.cols[name] = col
	c.mu.Unlock()
	return col, !preexisting, nil
}

// Drop removes the named collection from memory, closes its WAL, and
// deletes its durable directory (or snapshot file) and an interrupted
// migration's staging directory beside it. It returns ErrNotFound when
// the name is neither loaded nor on disk under either. Drop holds the
// per-name slot and the checkpoint mutex, so neither a cold load nor a
// checkpoint sweep can resurrect the files afterwards.
func (c *Catalog) Drop(name string) error {
	if !api.ValidName(name) {
		return ErrBadName
	}
	c.claimSlot(name, false) // loaded or not, Drop needs the slot
	defer c.releaseName(name)
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()

	c.mu.Lock()
	col, loaded := c.cols[name]
	delete(c.cols, name)
	c.mu.Unlock()
	if col != nil {
		col.Close()
	}
	path := c.path(name)
	_, statErr := os.Stat(path)
	_, stagedErr := os.Stat(path + migratingExt)
	if statErr != nil && stagedErr != nil && !loaded {
		return ErrNotFound
	}
	if err := os.RemoveAll(path + migratingExt); err != nil {
		return err
	}
	return os.RemoveAll(path)
}

// Names lists every collection the catalog knows — loaded, on disk, or
// left in an interrupted migration's staging directory — in sorted order.
func (c *Catalog) Names() ([]string, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	seen := make(map[string]bool, len(c.cols))
	for name := range c.cols {
		seen[name] = true
	}
	c.mu.RUnlock()
	for _, e := range entries {
		name, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), migratingExt), collectionExt)
		if ok && api.ValidName(name) {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Loaded returns the collections currently resident in memory, keyed by
// name — the set the maintenance loop sweeps (unloaded collections have
// no tombstones to compact and an already-quiet WAL).
func (c *Catalog) Loaded() map[string]*bond.Collection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*bond.Collection, len(c.cols))
	for name, col := range c.cols {
		out[name] = col
	}
	return out
}

// CheckpointLoaded checkpoints every loaded collection whose current WAL
// holds at least minWALBytes (minWALBytes <= 0 checkpoints every
// collection with any logged record — the shutdown sweep), truncating
// their logs. It returns how many checkpoints were written; the first
// error is returned after attempting the rest. Durability does not
// depend on it — acknowledged writes are already in the WAL — it only
// bounds recovery replay time.
func (c *Catalog) CheckpointLoaded(minWALBytes int64) (int, error) {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	loaded := c.Loaded()
	names := make([]string, 0, len(loaded))
	for name := range loaded {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic sweep order for logs and tests

	var firstErr error
	written := 0
	for _, name := range names {
		col := loaded[name]
		ws, ok := col.WALStats()
		if !ok || ws.WALRecords == 0 || (minWALBytes > 0 && ws.WALBytes < minWALBytes) {
			continue
		}
		if err := col.Checkpoint(); err != nil {
			if errors.Is(err, bond.ErrClosed) {
				continue // dropped concurrently
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("server: checkpoint %q: %w", name, err)
			}
			continue
		}
		written++
	}
	return written, firstErr
}

// CloseAll checkpoints nothing but closes every loaded collection's WAL
// (fsyncing it), releasing the catalog for process exit.
func (c *Catalog) CloseAll() error {
	c.mu.Lock()
	cols := c.cols
	c.cols = map[string]*bond.Collection{}
	c.mu.Unlock()
	var firstErr error
	for name, col := range cols {
		if err := col.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: close %q: %w", name, err)
		}
	}
	return firstErr
}
