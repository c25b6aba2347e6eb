package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"bond"
	"bond/internal/iofs"
	"bond/internal/vstore"
)

// Whole-file snapshots are what releases before the durable directory
// wrote: the seed's flat layout (one vstore.Store stream) or the segmented
// layout below. Only -import reads them; nothing that serves a collection
// does.
const (
	segMagic = "BONDSEG1"
	// segVersion 1 is the first segmented snapshot layout; version 2 adds
	// a length-prefixed statistics block between the header and the
	// segments. Both load. The block held the planner's learned cost
	// model, which no longer exists: a load checks its length against
	// maxStatsBlock and skips its bytes.
	segVersion    = uint32(2)
	maxStatsBlock = 1 << 20
)

// importingSuffix marks the staging directory an import builds before
// renaming it into place.
const importingSuffix = ".importing"

// snapshot is a snapshot file's content: the segment size and the
// segments in id order, every one but the last sealed, each with its rows
// and delete marks.
type snapshot struct {
	dims, segSize int
	segs          []*vstore.Store
}

// loadSegmented reads a segmented snapshot image: a header (magic,
// version, dims, segment size, segment count), the version-2 statistics
// block, each segment as a nested flat-store stream, and a CRC32 trailer
// over everything before it. It validates magic, version, and both the
// per-segment and the trailing checksums.
func loadSegmented(r io.Reader) (*snapshot, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", vstore.ErrCorrupt, err)
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("%w: bad magic %q", vstore.ErrCorrupt, magic)
	}
	var version, dims64, segSize64, nsegs64 uint64
	for _, p := range []*uint64{&version, &dims64, &segSize64, &nsegs64} {
		if err := binary.Read(tr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %v", vstore.ErrCorrupt, err)
		}
	}
	if uint32(version) < 1 || uint32(version) > segVersion {
		return nil, fmt.Errorf("%w: unsupported segment version %d", vstore.ErrCorrupt, version)
	}
	dims, segSize, nsegs := int(dims64), int(segSize64), int(nsegs64)
	if dims < 1 || dims > 1<<20 || segSize < 1 || nsegs < 1 || nsegs > 1<<24 {
		return nil, fmt.Errorf("%w: implausible header dims=%d segSize=%d nsegs=%d",
			vstore.ErrCorrupt, dims, segSize, nsegs)
	}
	snap := &snapshot{dims: dims, segSize: segSize}
	if uint32(version) >= 2 {
		var statsLen uint64
		if err := binary.Read(tr, binary.LittleEndian, &statsLen); err != nil {
			return nil, fmt.Errorf("%w: %v", vstore.ErrCorrupt, err)
		}
		if statsLen > maxStatsBlock {
			return nil, fmt.Errorf("%w: implausible stats block of %d bytes", vstore.ErrCorrupt, statsLen)
		}
		if _, err := io.CopyN(io.Discard, tr, int64(statsLen)); err != nil {
			return nil, fmt.Errorf("%w: %v", vstore.ErrCorrupt, err)
		}
	}
	for i := 0; i < nsegs; i++ {
		st, err := vstore.Load(tr)
		if err != nil {
			return nil, err
		}
		if st.Dims() != dims {
			return nil, fmt.Errorf("%w: segment %d dims %d != %d", vstore.ErrCorrupt, i, st.Dims(), dims)
		}
		snap.segs = append(snap.segs, st)
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", vstore.ErrCorrupt, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", vstore.ErrCorrupt)
	}
	return snap, nil
}

// loadSnapshot reads either snapshot layout from an in-memory image: the
// segmented one, or the seed's flat one (a Store.Save stream), whose rows
// form one sealed segment before an empty active one, at the default
// segment size (so an import cuts a longer file at that size, as any bulk
// load is cut). A coordinate that is NaN or ±Inf is corruption: no
// collection holds one.
func loadSnapshot(b []byte) (*snapshot, error) {
	if len(b) < len(segMagic) {
		return nil, fmt.Errorf("%w: %d-byte store image", vstore.ErrCorrupt, len(b))
	}
	var snap *snapshot
	br := bytes.NewReader(b)
	if string(b[:len(segMagic)]) == segMagic {
		var err error
		if snap, err = loadSegmented(br); err != nil {
			return nil, err
		}
	} else {
		st, err := vstore.Load(br)
		if err != nil {
			return nil, err
		}
		snap = &snapshot{dims: st.Dims(), segSize: bond.DefaultSegmentSize, segs: []*vstore.Store{st}}
		if st.Len() > 0 {
			snap.segs = append(snap.segs, vstore.New(st.Dims()))
		}
	}
	for i, st := range snap.segs {
		for d := 0; d < st.Dims(); d++ {
			for _, x := range st.Column(d) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("%w: segment %d holds coordinate %v", vstore.ErrCorrupt, i, x)
				}
			}
		}
	}
	return snap, nil
}

// importSnapshot converts the snapshot file src into a durable directory
// at dst that bond.OpenDurable opens, with the same ids, rows, tombstones
// and sealed-segment boundaries. The directory is staged beside dst and
// renamed into place once complete, so a failed import leaves no dst
// behind. src is only read, and an existing dst is refused.
func importSnapshot(src, dst string) error {
	if _, err := os.Lstat(dst); err == nil {
		return fmt.Errorf("bond: import %s: %s already exists", src, dst)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	img, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	snap, err := loadSnapshot(img)
	if err != nil {
		return fmt.Errorf("bond: import %s: %w", src, err)
	}
	tmp := dst + importingSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := writeSnapshot(tmp, snap); err != nil {
		_ = os.RemoveAll(tmp) // the import failed either way; err says why
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		_ = os.RemoveAll(tmp)
		return err
	}
	return iofs.OS{}.SyncDir(filepath.Dir(dst))
}

// writeSnapshot creates the durable collection at dir holding snap: each
// segment's rows appended in segment-size batches, a sealed segment that
// did not fill up sealed by hand, its tombstones logged, and a checkpoint
// so the directory carries no log to replay. The log is not fsynced per
// record: the checkpoint syncs every file it writes, and the directory is
// worthless until the caller renames it into place.
func writeSnapshot(dir string, snap *snapshot) error {
	col, err := bond.OpenDurable(dir, bond.DurableOptions{Dims: snap.dims, SegmentSize: snap.segSize, Fsync: bond.FsyncNever})
	if err != nil {
		return err
	}
	for i, seg := range snap.segs {
		base, n := col.Len(), seg.Len()
		for lo := 0; lo < n && err == nil; {
			rows := make([][]float64, min(snap.segSize, n-lo))
			for j := range rows {
				rows[j] = seg.Row(lo + j)
			}
			_, err = col.AddBatchDurable(rows)
			lo += len(rows)
		}
		if err == nil && i < len(snap.segs)-1 && n%snap.segSize != 0 {
			err = col.SealActiveDurable()
		}
		for id := 0; id < n && err == nil; id++ {
			if seg.IsDeleted(id) {
				_, err = col.TryDeleteDurable(base + id)
			}
		}
	}
	if err == nil {
		err = col.Checkpoint()
	}
	if cerr := col.Close(); err == nil {
		err = cerr
	}
	return err
}
