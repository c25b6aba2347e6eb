package vstore

// This file implements the incremental on-disk layout a durable
// collection checkpoints into: a directory holding
//
//	MANIFEST            the commit point: segment list + tombstones +
//	                    WAL sequence, CRC-trailed, replaced atomically
//	                    (write tmp, fsync, rename)
//	seg-<id>.seg        one file per sealed segment, written exactly
//	                    once when the segment first appears in a
//	                    checkpoint and byte-stable forever after —
//	                    sealed columns are immutable, and tombstones
//	                    live in the manifest, not here
//	active-<seq>.ckpt   the mutable active segment as of the checkpoint
//	                    that rotated the WAL to sequence <seq>
//	wal-<seq>.log       the write-ahead log of mutations since that
//	                    checkpoint (owned by package wal)
//
// The checkpoint protocol (WriteCheckpoint) orders writes so the rename
// of MANIFEST is the single commit point: new segment files and the new
// active checkpoint land first, each through its own atomic tmp+fsync+
// rename; only then is the manifest replaced; only after that are the
// previous checkpoint's WAL, active file, and orphaned segment files
// garbage-collected. A crash anywhere leaves either the old manifest
// (whose files are all still present) or the new one (ditto) — never a
// manifest naming files that do not exist.
//
// Because only the manifest and the active checkpoint are rewritten, a
// checkpoint's cost is O(active segment + tombstone lists), not O(whole
// collection): sealed segments — the bulk of a grown collection — are
// never written twice.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bond/internal/iofs"
)

const (
	// ManifestName is the durable directory's commit record.
	ManifestName = "MANIFEST"

	manMagic   = "BONDMAN1"
	manVersion = uint32(2)
	maxSegs    = 1 << 24
	// segFormat is the format byte every manifest entry carries: sealed
	// segment files are column-major (Store.WriteSegmentV2).
	segFormat = byte(2)
)

// ErrNoManifest reports a directory without a MANIFEST — an empty or
// half-created durable directory, as opposed to a corrupt one.
var ErrNoManifest = errors.New("vstore: no manifest")

// ErrOlderLayout marks what an earlier release left at a collection path
// and this one does not read: a whole-file snapshot, an interrupted
// migration's staging directory, or a durable directory with a version-1
// manifest, a format-1 (row-stream) segment file or a non-empty planner
// statistics block. Each refusal wraps it with what it found and the
// remedy, and changes nothing on disk; the condition lasts until an
// operator acts on it.
var ErrOlderLayout = errors.New("layout of an earlier release")

// olderManifest refuses a well-formed manifest in a layout this release
// does not read, naming what it found; releases that read that layout
// rewrite it at a checkpoint.
func olderManifest(found string) error {
	return fmt.Errorf("vstore: %s: %w: this release reads manifest version 2 with format-2 segment files "+
		"and an empty statistics block: open the directory once with an earlier release and call "+
		"Collection.Checkpoint, which rewrites it in that layout", found, ErrOlderLayout)
}

// SegFileName returns the write-once file name of sealed segment id.
func SegFileName(id uint64) string { return fmt.Sprintf("seg-%016x.seg", id) }

// ActiveFileName returns the active-segment checkpoint file name for the
// checkpoint that rotated the WAL to seq.
func ActiveFileName(seq uint64) string { return fmt.Sprintf("active-%016d.ckpt", seq) }

// WALFileName returns the write-ahead log file name for sequence seq.
func WALFileName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// ParseWALSeq extracts the sequence number from a WAL file name.
func ParseWALSeq(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	return seq, err == nil
}

// ManifestSegment describes one sealed segment in a manifest: which
// write-once file holds its columns, how many slots it has (a cheap
// cross-check against the file), and which of them were tombstoned as of
// the checkpoint.
type ManifestSegment struct {
	ID      uint64
	Len     int
	Deleted []int
}

// Manifest is the decoded commit record of a durable directory.
type Manifest struct {
	Dims      int
	SegSize   int
	NextSegID uint64
	WALSeq    uint64
	ActiveLen int
	Segments  []ManifestSegment
}

// EncodeManifest renders m in the CRC-trailed binary manifest format. The
// format keeps a length-prefixed statistics block after the header, where
// the planner's retired learned cost model used to be persisted, and a
// format byte per segment; the block is written empty and the byte as 2,
// the only values DecodeManifest accepts.
func EncodeManifest(m *Manifest) []byte {
	var b []byte
	b = append(b, manMagic...)
	b = binary.LittleEndian.AppendUint32(b, manVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Dims))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SegSize))
	b = binary.LittleEndian.AppendUint64(b, m.NextSegID)
	b = binary.LittleEndian.AppendUint64(b, m.WALSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.ActiveLen))
	b = binary.LittleEndian.AppendUint32(b, 0) // statistics block length
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Segments)))
	for _, sg := range m.Segments {
		b = binary.LittleEndian.AppendUint64(b, sg.ID)
		b = binary.LittleEndian.AppendUint64(b, uint64(sg.Len))
		b = append(b, segFormat)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sg.Deleted)))
		for _, id := range sg.Deleted {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// manCursor is a bounds-checked reader over a manifest image; every
// length is validated against the bytes actually present before any
// allocation is sized from it, so a malformed manifest errors instead of
// panicking or over-allocating.
type manCursor struct {
	data []byte
	off  int
}

func (c *manCursor) bytes(n int) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, fmt.Errorf("%w: manifest truncated at byte %d", ErrCorrupt, c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *manCursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *manCursor) u64() (uint64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// DecodeManifest parses and validates a manifest image. It never panics
// on malformed input. It accepts exactly what EncodeManifest writes: a
// well-formed image with another version, a non-empty statistics block or
// a segment format other than 2 is an older layout, refused with an error
// that names the remedy and is not ErrCorrupt.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manMagic)+4+4 {
		return nil, fmt.Errorf("%w: %d-byte manifest", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	c := &manCursor{data: body}
	mg, err := c.bytes(len(manMagic))
	if err != nil {
		return nil, err
	}
	if string(mg) != manMagic {
		return nil, fmt.Errorf("%w: bad manifest magic %q", ErrCorrupt, mg)
	}
	ver, err := c.u32()
	if err != nil {
		return nil, err
	}
	if ver != manVersion {
		return nil, olderManifest(fmt.Sprintf("manifest version %d", ver))
	}
	m := &Manifest{}
	var dims, segSize, activeLen uint64
	for _, p := range []*uint64{&dims, &segSize, &m.NextSegID, &m.WALSeq, &activeLen} {
		if *p, err = c.u64(); err != nil {
			return nil, err
		}
	}
	if dims < 1 || dims > 1<<20 || segSize < 1 || segSize > 1<<31 || activeLen > 1<<31 {
		return nil, fmt.Errorf("%w: implausible manifest dims=%d segSize=%d activeLen=%d",
			ErrCorrupt, dims, segSize, activeLen)
	}
	m.Dims, m.SegSize, m.ActiveLen = int(dims), int(segSize), int(activeLen)
	statsLen, err := c.u32()
	if err != nil {
		return nil, err
	}
	if statsLen != 0 {
		return nil, olderManifest(fmt.Sprintf("%d-byte statistics block", statsLen))
	}
	nsegs, err := c.u32()
	if err != nil {
		return nil, err
	}
	if nsegs > maxSegs {
		return nil, fmt.Errorf("%w: implausible segment count %d", ErrCorrupt, nsegs)
	}
	for i := uint32(0); i < nsegs; i++ {
		var sg ManifestSegment
		if sg.ID, err = c.u64(); err != nil {
			return nil, err
		}
		slen, err := c.u64()
		if err != nil {
			return nil, err
		}
		if slen > 1<<31 {
			return nil, fmt.Errorf("%w: implausible segment length %d", ErrCorrupt, slen)
		}
		sg.Len = int(slen)
		fb, err := c.bytes(1)
		if err != nil {
			return nil, err
		}
		if fb[0] != segFormat {
			return nil, olderManifest(fmt.Sprintf("segment %d in format %d", sg.ID, fb[0]))
		}
		ndel, err := c.u32()
		if err != nil {
			return nil, err
		}
		if uint64(ndel) > slen {
			return nil, fmt.Errorf("%w: %d tombstones for %d slots", ErrCorrupt, ndel, slen)
		}
		raw, err := c.bytes(int(ndel) * 8)
		if err != nil {
			return nil, err
		}
		if ndel > 0 {
			sg.Deleted = make([]int, ndel)
			for j := range sg.Deleted {
				id := binary.LittleEndian.Uint64(raw[j*8:])
				if id >= slen {
					return nil, fmt.Errorf("%w: tombstone %d outside segment of %d", ErrCorrupt, id, slen)
				}
				sg.Deleted[j] = int(id)
			}
		}
		m.Segments = append(m.Segments, sg)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, len(body)-c.off)
	}
	return m, nil
}

// CheckpointSeg is one sealed segment captured for a checkpoint: the
// shared immutable column store, its persistent id, and a snapshot of
// its tombstones at capture time.
type CheckpointSeg struct {
	ID      uint64
	Store   *Store
	Deleted []int
}

// CheckpointState is a consistent capture of a segmented store for
// WriteCheckpoint: taken under the collection's write lock, written to
// disk outside it. Sealed column data is shared (immutable); the active
// segment and every tombstone list are copies, so concurrent mutations
// after the capture cannot leak into the checkpoint.
type CheckpointState struct {
	Dims      int
	SegSize   int
	NextSegID uint64
	WALSeq    uint64
	Sealed    []CheckpointSeg
	Active    *Store
}

// CaptureCheckpoint snapshots the store for a checkpoint that rotated
// the WAL to walSeq. Sealed segments without a persistent id yet (fresh
// seals, compaction rewrites) are assigned one here — ids are unique
// over the store's lifetime, which is what lets a segment file be
// written exactly once and garbage-collected by name. Callers must hold
// the store's external write lock.
func (s *SegStore) CaptureCheckpoint(walSeq uint64) *CheckpointState {
	if s.nextSegID == 0 {
		s.nextSegID = 1
	}
	cs := &CheckpointState{Dims: s.dims, SegSize: s.segSize, WALSeq: walSeq}
	for _, g := range s.segs {
		if !g.sealed {
			continue
		}
		if g.persistID == 0 {
			g.persistID = s.nextSegID
			s.nextSegID++
		}
		cs.Sealed = append(cs.Sealed, CheckpointSeg{
			ID:      g.persistID,
			Store:   g.Store,
			Deleted: g.deleted.Slice(),
		})
	}
	cs.Active = s.active().Clone()
	cs.NextSegID = s.nextSegID
	return cs
}

// WriteCheckpoint persists a captured checkpoint into dir. The manifest
// rename is the commit point; everything before it is invisible to
// recovery and everything after it (garbage collection of the previous
// checkpoint's files) is best-effort and idempotent.
func WriteCheckpoint(fs iofs.FS, dir string, cs *CheckpointState) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	// Make the directory's own entry durable in its parent — a freshly
	// created collection whose parent directory is never fsynced can
	// vanish wholesale in a power loss, fsynced contents and all.
	if err := fs.SyncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	m := &Manifest{
		Dims:      cs.Dims,
		SegSize:   cs.SegSize,
		NextSegID: cs.NextSegID,
		WALSeq:    cs.WALSeq,
		ActiveLen: cs.Active.Len(),
	}
	for _, sg := range cs.Sealed {
		name := filepath.Join(dir, SegFileName(sg.ID))
		if _, err := fs.Stat(name); err != nil {
			// First checkpoint naming this segment: write its file once, in
			// the column-major v2 layout recovery can memory-map. Tombstones
			// are deliberately excluded from the format — they keep
			// changing, and they belong to the manifest.
			if err := iofs.WriteFileAtomic(fs, name, sg.Store.WriteSegmentV2); err != nil {
				return err
			}
		}
		m.Segments = append(m.Segments, ManifestSegment{
			ID: sg.ID, Len: sg.Store.Len(), Deleted: sg.Deleted,
		})
	}
	active := filepath.Join(dir, ActiveFileName(cs.WALSeq))
	if err := iofs.WriteFileAtomic(fs, active, cs.Active.Save); err != nil {
		return err
	}
	img := EncodeManifest(m)
	if err := iofs.WriteFileAtomic(fs, filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, werr := w.Write(img)
		return werr
	}); err != nil {
		return err
	}
	CleanDir(fs, dir, m)
	return nil
}

// CleanDir garbage-collects files the committed manifest no longer
// references: WALs older than the manifest's sequence, active
// checkpoints other than the current one, segment files of segments that
// compaction dropped, and stray .tmp files. Best-effort: errors are
// ignored, because every stale file is harmless until the next
// opportunity to delete it.
func CleanDir(fs iofs.FS, dir string, m *Manifest) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(m.Segments)+2)
	for _, sg := range m.Segments {
		live[SegFileName(sg.ID)] = true
	}
	live[ActiveFileName(m.WALSeq)] = true
	live[ManifestName] = true
	for _, name := range names {
		switch {
		case live[name]:
		case strings.HasSuffix(name, ".tmp"):
			_ = fs.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"),
			strings.HasPrefix(name, "active-") && strings.HasSuffix(name, ".ckpt"):
			_ = fs.Remove(filepath.Join(dir, name))
		default:
			if seq, ok := ParseWALSeq(name); ok && seq < m.WALSeq {
				_ = fs.Remove(filepath.Join(dir, name))
			}
		}
	}
}

// RecoverOptions tunes RecoverDir.
type RecoverOptions struct {
	// DisableMmap forces v2 sealed segments to be read into the heap even
	// when the filesystem can memory-map them. Mapping already degrades to
	// a heap read automatically when the filesystem does not implement
	// iofs.MapFS or the platform lacks mmap; this flag is the operator
	// override (bondd -mmap=false, BOND_NO_MMAP=1 in CI).
	DisableMmap bool
}

// RecoverDir loads the durable directory's committed checkpoint: the
// manifest, every sealed segment file it names (with the manifest's
// tombstones applied), and the active-segment checkpoint. The caller
// replays wal-<WALSeq>.log (and any later WALs a crashed checkpoint left
// behind) on top. A directory without a manifest returns ErrNoManifest;
// one in an older layout (see DecodeManifest) is refused with an error
// naming Collection.Checkpoint under an earlier release as the remedy.
//
// Sealed segments are memory-mapped when the filesystem supports it:
// their columns alias the file's pages and fault in on first scan, so
// recovery's cost is O(manifest + synopses), not O(data). Otherwise they
// are decoded into the heap.
func RecoverDir(fs iofs.FS, dir string, opts RecoverOptions) (*SegStore, *Manifest, error) {
	data, err := fs.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, ErrNoManifest
		}
		return nil, nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	s := &SegStore{dims: m.Dims, segSize: m.SegSize, nextSegID: m.NextSegID}
	mapper, canMap := fs.(iofs.MapFS)
	if opts.DisableMmap {
		canMap = false
	}
	base := 0
	for _, sg := range m.Segments {
		name := SegFileName(sg.ID)
		path := filepath.Join(dir, name)
		var (
			st     *Store
			mapped bool
		)
		if canMap {
			if mb, merr := mapper.MapFile(path); merr == nil {
				st, err = MapSegmentV2(mb)
				if err != nil {
					_ = mapper.UnmapFile(mb)
					s.ReleaseMappings()
					return nil, nil, fmt.Errorf("segment %s: %w", name, err)
				}
				s.registerMapping(mapper, mb)
				mapped = true
			}
			// A map failure (unsupported platform, exotic filesystem) is
			// not corruption: fall through to the heap read, which will
			// surface any real I/O error itself.
		}
		if st == nil {
			b, rerr := fs.ReadFile(path)
			if rerr != nil {
				s.ReleaseMappings()
				return nil, nil, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, name, rerr)
			}
			if st, err = DecodeSegmentV2(b); err != nil {
				s.ReleaseMappings()
				return nil, nil, fmt.Errorf("segment %s: %w", name, err)
			}
		}
		if st.Dims() != m.Dims || st.Len() != sg.Len || st.Live() != st.Len() {
			s.ReleaseMappings()
			return nil, nil, fmt.Errorf("%w: segment %s is %d×%d live %d, manifest wants %d×%d clean",
				ErrCorrupt, name, st.Len(), st.Dims(), st.Live(), sg.Len, m.Dims)
		}
		for _, id := range sg.Deleted {
			st.deleted.Set(id) // ids validated by DecodeManifest
		}
		s.segs = append(s.segs, &Segment{Store: st, sealed: true, persistID: sg.ID, mapped: mapped})
		s.bases = append(s.bases, base)
		base += st.Len()
	}
	activeName := ActiveFileName(m.WALSeq)
	ab, err := fs.ReadFile(filepath.Join(dir, activeName))
	if err != nil {
		s.ReleaseMappings()
		return nil, nil, fmt.Errorf("%w: active checkpoint %s: %v", ErrCorrupt, activeName, err)
	}
	ast, err := Load(bytes.NewReader(ab))
	if err != nil {
		s.ReleaseMappings()
		return nil, nil, fmt.Errorf("active checkpoint %s: %w", activeName, err)
	}
	if ast.Dims() != m.Dims || ast.Len() != m.ActiveLen {
		s.ReleaseMappings()
		return nil, nil, fmt.Errorf("%w: active checkpoint is %d×%d, manifest wants %d×%d",
			ErrCorrupt, ast.Len(), ast.Dims(), m.ActiveLen, m.Dims)
	}
	s.segs = append(s.segs, &Segment{Store: ast})
	s.bases = append(s.bases, base)
	return s, m, nil
}
