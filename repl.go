package bond

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"bond/internal/iofs"
	"bond/internal/repl"
	"bond/internal/vstore"
	"bond/internal/wal"
)

// Replication: a leader serves its CRC-framed WAL as a byte stream
// (ReplChunk) plus checkpoint snapshots for bootstrap (ReplSnapshot); a
// follower mirrors the stream verbatim into its own log and applies
// each record through the same stage and apply the leader's mutators and
// recovery use (ApplyReplChunk), so follower state is byte-identical to
// the leader at every applied offset. A follower's resume position after
// any interruption — including a crash — is simply what its own recovery
// reports (ReplPosition): the log and the in-memory state never
// diverge, because a record is staged, then logged, then applied.

var (
	// ErrReplGone reports that the requested stream position was
	// garbage-collected by a leader checkpoint; the follower must
	// re-bootstrap from a fresh snapshot.
	ErrReplGone = errors.New("bond: replication position gone")
	// ErrReplDiverged reports a stream position or record that cannot
	// belong to this replica's history — the replica is fenced, never
	// silently patched.
	ErrReplDiverged = errors.New("bond: replica diverged")
)

// replChunkDefault is a chunk's payload size when the follower does not
// ask for one; replChunkMax is the hard cap. The cap must admit any
// single frame (an ingest batch is one frame, bounded by the serving
// layer's body cap), because a follower that gets a full chunk with no
// complete frame in it retries with a doubled max.
const (
	replChunkDefault = 1 << 20
	replChunkMax     = 1 << 28
)

// bootstrapSuffix stages a snapshot install next to the target
// directory. It is never resumed: a half-written staging tree is
// discarded and bootstrap re-runs.
const bootstrapSuffix = ".bootstrap"

// ReplPosition returns the collection's current stream position: the
// live WAL generation and its acknowledged byte size. On a follower
// this is exactly where tailing must resume; on a leader it is the
// stream's high-water mark.
func (c *Collection) ReplPosition() (repl.Position, error) {
	if c.dur == nil {
		return repl.Position{}, ErrNotDurable
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur.closed {
		return repl.Position{}, ErrClosed
	}
	return repl.Position{Seq: c.dur.walSeq, Off: c.dur.w.Size()}, nil
}

// ReplChunk serves one slice of the replication stream starting at
// (seq, from): up to max bytes of acknowledged WAL bytes (the slice
// may end mid-frame when a frame straddles max; the follower holds the
// torn tail and the next chunk completes it). A request at the live
// position returns an empty chunk (the follower is caught up); a
// request for a completed older generation sets Rotated once its end
// is reached; a request for a generation a checkpoint already deleted
// fails with ErrReplGone; a position the leader never produced fails
// with ErrReplDiverged. Caught-up polls — the steady state of every
// follower — touch no file at all, and partial reads are windowed
// (iofs.ReadFileRange), not whole-file.
func (c *Collection) ReplChunk(seq uint64, from int64, max int) (repl.Chunk, error) {
	if c.dur == nil {
		return repl.Chunk{}, ErrNotDurable
	}
	if max <= 0 {
		max = replChunkDefault
	}
	if max > replChunkMax {
		max = replChunkMax
	}
	if from < wal.HeaderLen {
		return repl.Chunk{}, fmt.Errorf("%w: offset %d before log header", ErrReplDiverged, from)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur.closed {
		return repl.Chunk{}, ErrClosed
	}
	cur := repl.Position{Seq: c.dur.walSeq, Off: c.dur.w.Size()}
	ch := repl.Chunk{Seq: seq, From: from, Leader: cur}
	name := filepath.Join(c.dur.dir, vstore.WALFileName(seq))
	if seq > cur.Seq {
		return repl.Chunk{}, fmt.Errorf("%w: requested wal-%d, leader at wal-%d", ErrReplDiverged, seq, cur.Seq)
	}
	if seq == cur.Seq {
		// Serve only up to the acknowledged size: bytes past it (none
		// today — a failed fsync rolls the gauge back) must never ship.
		end := cur.Off
		if from > end {
			return repl.Chunk{}, fmt.Errorf("%w: offset %d past leader position %d", ErrReplDiverged, from, end)
		}
		if from == end {
			return ch, nil // caught up: no file I/O
		}
		data, err := iofs.ReadFileRange(c.dur.fs, name, from, min(end, from+int64(max))-from)
		if err != nil {
			return repl.Chunk{}, err
		}
		ch.Data = data
		return ch, nil
	}

	// Older generation.
	rotEnd, rotated := c.dur.rotations[seq]
	if rotated {
		if from > rotEnd {
			return repl.Chunk{}, fmt.Errorf("%w: offset %d past end %d of wal-%d", ErrReplDiverged, from, rotEnd, seq)
		}
		if from == rotEnd {
			// The follower consumed the whole generation: tell it to
			// rotate without touching the (possibly checkpoint-deleted)
			// file.
			ch.Rotated = true
			return ch, nil
		}
	}
	end := rotEnd
	if !rotated {
		fi, err := c.dur.fs.Stat(name)
		if err != nil {
			// Checkpoint-deleted and its endpoint unrecorded (leader
			// restart): the bytes are gone, the follower re-bootstraps.
			return repl.Chunk{}, fmt.Errorf("%w: wal-%d deleted by checkpoint", ErrReplGone, seq)
		}
		end = fi.Size
		if from > end {
			return repl.Chunk{}, fmt.Errorf("%w: offset %d past end %d of wal-%d", ErrReplDiverged, from, end, seq)
		}
	}
	to := min(end, from+int64(max))
	data, err := iofs.ReadFileRange(c.dur.fs, name, from, to-from)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Deleted between the rotations lookup and the read.
			return repl.Chunk{}, fmt.Errorf("%w: wal-%d deleted by checkpoint", ErrReplGone, seq)
		}
		return repl.Chunk{}, err
	}
	ch.Data = data
	ch.Rotated = from+int64(len(data)) == end
	return ch, nil
}

// ReplSnapshot checkpoints the collection and packages the freshly
// committed durable files for follower bootstrap. Holding the
// checkpoint mutex across the capture guarantees the files read are
// exactly the ones the checkpoint wrote, so a bootstrapped follower is
// byte-identical to the leader at the snapshot's position — the start
// of the WAL generation the checkpoint rotated to.
func (c *Collection) ReplSnapshot() (*repl.Snapshot, error) {
	if c.dur == nil {
		return nil, ErrNotDurable
	}
	c.dur.ckptMu.Lock()
	defer c.dur.ckptMu.Unlock()
	if err := c.checkpointLocked(); err != nil {
		return nil, err
	}
	c.mu.RLock()
	seq := c.dur.walSeq
	fs, dir := c.dur.fs, c.dur.dir
	c.mu.RUnlock()

	files := make(map[string][]byte)
	raw, err := fs.ReadFile(filepath.Join(dir, vstore.ManifestName))
	if err != nil {
		return nil, err
	}
	m, err := vstore.DecodeManifest(raw)
	if err != nil {
		return nil, err
	}
	if m.WALSeq != seq {
		return nil, fmt.Errorf("bond: snapshot manifest at wal-%d, expected wal-%d", m.WALSeq, seq)
	}
	files[vstore.ManifestName] = raw
	for _, seg := range m.Segments {
		name := vstore.SegFileName(seg.ID)
		data, err := fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files[name] = data
	}
	active := vstore.ActiveFileName(seq)
	data, err := fs.ReadFile(filepath.Join(dir, active))
	if err != nil {
		return nil, err
	}
	files[active] = data
	snap := &repl.Snapshot{
		Position: repl.Position{Seq: seq, Off: wal.HeaderLen},
		Files:    files,
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// ApplyReplChunk applies one streamed chunk to a follower: each
// complete frame is re-validated, staged against the current state,
// appended verbatim to the follower's own log (fsynced under
// FsyncAlways), and only then applied — so the log and the in-memory
// state stay in lockstep through any crash. Overlap with already-
// applied bytes is skipped (chunks are idempotent); a gap, a frame the
// state cannot accept, or a chunk for the wrong generation fails with
// ErrReplDiverged; a torn tail is not an error — the next chunk
// completes it. The chunk's Rotated flag is the caller's cue to
// Checkpoint afterwards, mirroring the leader's rotation.
func (c *Collection) ApplyReplChunk(ch repl.Chunk) error {
	if c.dur == nil {
		return ErrNotDurable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur.closed {
		return ErrClosed
	}
	if ch.Seq != c.dur.walSeq {
		return fmt.Errorf("%w: chunk for wal-%d, replica at wal-%d", ErrReplDiverged, ch.Seq, c.dur.walSeq)
	}
	pos := c.dur.w.Size()
	if ch.From > pos {
		return fmt.Errorf("%w: chunk starts at %d, replica at %d (gap)", ErrReplDiverged, ch.From, pos)
	}
	data := ch.Data
	if skip := pos - ch.From; skip > 0 {
		if skip >= int64(len(data)) {
			return nil
		}
		data = data[skip:]
	}
	syncNow := c.dur.policy == FsyncAlways
	for len(data) > 0 {
		rec, n, err := wal.ParseFrame(data)
		if err != nil {
			if wal.IsTorn(err) {
				return nil
			}
			return fmt.Errorf("%w: %v", ErrReplDiverged, err)
		}
		st, serr := stage(c.store, rec)
		if serr != nil {
			return fmt.Errorf("%w: %v", ErrReplDiverged, serr)
		}
		if err := c.dur.w.AppendRaw(data[:n], syncNow); err != nil {
			return err
		}
		c.apply(st)
		data = data[n:]
	}
	return nil
}

// BootstrapReplica materializes a follower's durable directory from a
// leader snapshot and opens it. The install is crash-safe: the tree is
// fully staged under path+".bootstrap" (every file written atomically),
// only then is any existing directory removed and the staging renamed
// into place. A crash mid-stage leaves the old state (or nothing)
// behind and the staging is discarded on the next attempt; a crash
// between remove and rename leaves a complete staging tree that the
// next bootstrap rebuilds from a fresh snapshot — never a half-written
// directory recovery could misread.
func BootstrapReplica(path string, snap *repl.Snapshot, opts DurableOptions) (*Collection, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	fs := opts.FS
	if fs == nil {
		fs = iofs.OS{}
	}
	tmp := path + bootstrapSuffix
	_ = fs.RemoveAll(tmp)
	if err := fs.MkdirAll(tmp); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(snap.Files))
	for name := range snap.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := snap.Files[name]
		err := iofs.WriteFileAtomic(fs, filepath.Join(tmp, name), func(w io.Writer) error {
			_, werr := w.Write(data)
			return werr
		})
		if err != nil {
			return nil, err
		}
	}
	w, err := wal.Create(fs, filepath.Join(tmp, vstore.WALFileName(snap.Position.Seq)))
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := fs.RemoveAll(path); err != nil {
		return nil, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return nil, err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return OpenDurable(path, opts)
}
