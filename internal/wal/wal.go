// Package wal implements the collection write-ahead log: a CRC-framed,
// length-prefixed, append-only record stream of the mutations applied to
// a bond.Collection (Add, AddBatch, Delete, Compact, SealActive,
// Recluster).
//
// Every mutation is appended — and, under the fsync=always policy,
// fsynced — before it is acknowledged to the caller, so recovery can
// rebuild everything acknowledged since the last checkpoint by replaying
// the log on top of it. The format is designed for exactly that recovery
// path:
//
//   - each record frame is [u32 payload length][u32 IEEE CRC][payload],
//     with the CRC covering the payload (type byte + body), so a torn or
//     bit-flipped record is detected before it is applied;
//   - decoding stops at the first frame that does not validate and
//     reports everything before it — a torn final record (the mutation
//     in flight at the crash) is indistinguishable from a clean end of
//     log, which is precisely the contract: recovery yields a consistent
//     prefix of the acknowledged history;
//   - no length field is trusted beyond the bytes actually present, so
//     malformed input can never cause an oversized allocation.
//
// The log is truncated by checkpointing, not in place: the collection
// rotates to a fresh wal-<seq+1> file, writes an incremental checkpoint
// that covers everything up to the rotation, and deletes the old file
// once the checkpoint's manifest commits (see vstore's checkpoint
// protocol).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sync"

	"bond/internal/iofs"
)

// Type identifies a logged mutation.
type Type uint8

// Record types. The numeric values are the on-disk encoding and must not
// be reordered.
const (
	TypeAdd       Type = 1 // one vector appended
	TypeAddBatch  Type = 2 // a batch of vectors appended atomically
	TypeDelete    Type = 3 // one id tombstoned
	TypeCompact   Type = 4 // a compaction pass (min tombstone ratio)
	TypeSeal      Type = 5 // the active segment force-sealed
	TypeRecluster Type = 6 // sealed segments re-partitioned by k-means
)

const (
	magic      = "BONDWAL1"
	version    = uint32(1)
	headerLen  = len(magic) + 8 // magic + u32 version + u32 reserved
	frameLen   = 8              // u32 payload length + u32 crc
	maxPayload = 1 << 30        // sanity cap on a single record
	maxDims    = 1 << 20        // matches the storage layer's header caps
	maxBatch   = 1 << 31
)

// HeaderLen is the byte length of a WAL file's header — the offset of
// the first record frame, and therefore the stream position of an empty
// log. Replication positions are (file sequence, byte offset) pairs
// where offset HeaderLen means "nothing applied from this log yet".
const HeaderLen = int64(headerLen)

// ErrCorrupt is returned when a WAL image fails structural validation
// beyond a simple torn tail.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrTorn is returned (wrapped) when a log ends mid-record or
// mid-header — the expected shape after a crash during an append.
var ErrTorn = errors.New("wal: torn tail")

// IsTorn reports whether err is a torn-tail condition — an incomplete
// frame that more bytes would complete, as opposed to corruption.
func IsTorn(err error) bool { return errors.Is(err, ErrTorn) }

// Record is one logged mutation.
type Record struct {
	Type Type
	// Vectors carries the appended vectors for TypeAdd (length 1) and
	// TypeAddBatch.
	Vectors [][]float64
	// ID is the tombstoned id for TypeDelete.
	ID uint64
	// Ratio is the minimum tombstone ratio for TypeCompact.
	Ratio float64
	// K and Seed parameterize TypeRecluster. The record intentionally
	// carries only the k-means inputs, not the resulting layout: replay
	// re-runs the same deterministic clustering over the same state
	// prefix, which reproduces the layout exactly (see bond's recluster
	// contract).
	K    uint64
	Seed int64
}

// encode appends the record's frame to dst and returns the extended
// slice. It panics on inconsistent vector shapes (programmer error — the
// collection validates before logging).
func encode(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadStart := len(dst)
	dst = append(dst, byte(rec.Type))
	switch rec.Type {
	case TypeAdd:
		if len(rec.Vectors) != 1 {
			panic(fmt.Sprintf("wal: TypeAdd with %d vectors", len(rec.Vectors)))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Vectors[0])))
		for _, x := range rec.Vectors[0] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case TypeAddBatch:
		if len(rec.Vectors) == 0 {
			// The collection never logs an empty batch (a no-op mutation);
			// forbidding it keeps encode/decode exact inverses.
			panic("wal: empty TypeAddBatch")
		}
		dims := len(rec.Vectors[0])
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Vectors)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(dims))
		for _, v := range rec.Vectors {
			if len(v) != dims {
				panic("wal: ragged batch")
			}
			for _, x := range v {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		}
	case TypeDelete:
		dst = binary.LittleEndian.AppendUint64(dst, rec.ID)
	case TypeCompact:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Ratio))
	case TypeSeal:
	case TypeRecluster:
		dst = binary.LittleEndian.AppendUint64(dst, rec.K)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Seed))
	default:
		panic(fmt.Sprintf("wal: unknown record type %d", rec.Type))
	}
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodePayload parses one validated payload into a Record. Every length
// is checked against the bytes actually present before any allocation is
// sized from it.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 1 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	rec := Record{Type: Type(payload[0])}
	body := payload[1:]
	switch rec.Type {
	case TypeAdd:
		if len(body) < 4 {
			return Record{}, fmt.Errorf("%w: short add", ErrCorrupt)
		}
		dims := binary.LittleEndian.Uint32(body)
		if dims < 1 || dims > maxDims || uint64(len(body)-4) != uint64(dims)*8 {
			return Record{}, fmt.Errorf("%w: add dims %d for %d payload bytes", ErrCorrupt, dims, len(body))
		}
		v := make([]float64, dims)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[4+i*8:]))
		}
		rec.Vectors = [][]float64{v}
	case TypeAddBatch:
		if len(body) < 8 {
			return Record{}, fmt.Errorf("%w: short batch", ErrCorrupt)
		}
		count := binary.LittleEndian.Uint32(body)
		dims := binary.LittleEndian.Uint32(body[4:])
		if count < 1 || dims < 1 || dims > maxDims || uint64(count) > maxBatch ||
			uint64(len(body)-8) != uint64(count)*uint64(dims)*8 {
			return Record{}, fmt.Errorf("%w: batch %d×%d for %d payload bytes", ErrCorrupt, count, dims, len(body))
		}
		rec.Vectors = make([][]float64, count)
		off := 8
		for i := range rec.Vectors {
			v := make([]float64, dims)
			for d := range v {
				v[d] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
				off += 8
			}
			rec.Vectors[i] = v
		}
	case TypeDelete:
		if len(body) != 8 {
			return Record{}, fmt.Errorf("%w: delete body %d bytes", ErrCorrupt, len(body))
		}
		rec.ID = binary.LittleEndian.Uint64(body)
	case TypeCompact:
		if len(body) != 8 {
			return Record{}, fmt.Errorf("%w: compact body %d bytes", ErrCorrupt, len(body))
		}
		rec.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(body))
	case TypeSeal:
		if len(body) != 0 {
			return Record{}, fmt.Errorf("%w: seal body %d bytes", ErrCorrupt, len(body))
		}
	case TypeRecluster:
		if len(body) != 16 {
			return Record{}, fmt.Errorf("%w: recluster body %d bytes", ErrCorrupt, len(body))
		}
		rec.K = binary.LittleEndian.Uint64(body)
		rec.Seed = int64(binary.LittleEndian.Uint64(body[8:]))
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.Type)
	}
	return rec, nil
}

// DecodeAll parses a whole WAL image. It returns every record up to the
// first frame that fails validation, the byte offset just past the last
// valid record (the offset a writer should truncate to before
// appending), and a non-nil error describing why decoding stopped early
// — nil when the log ends cleanly on a record boundary.
//
// A zero-length image decodes as an empty log. An image whose header
// does not validate returns good == 0; the caller should recreate the
// file. DecodeAll never panics and never allocates more memory than a
// small multiple of len(data), whatever the input.
func DecodeAll(data []byte) (recs []Record, good int64, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d-byte header", ErrTorn, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	off := int64(headerLen)
	good = off
	for {
		remaining := int64(len(data)) - off
		if remaining == 0 {
			return recs, good, nil
		}
		if remaining < frameLen {
			return recs, good, fmt.Errorf("%w: %d-byte frame header", ErrTorn, remaining)
		}
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 1 || plen > maxPayload {
			return recs, good, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
		}
		if plen > remaining-frameLen {
			return recs, good, fmt.Errorf("%w: %d-byte payload, %d present", ErrTorn, plen, remaining-frameLen)
		}
		payload := data[off+frameLen : off+frameLen+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, good, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			return recs, good, derr
		}
		recs = append(recs, rec)
		off += frameLen + plen
		good = off
	}
}

// EncodeFrame appends rec's on-disk frame to dst and returns the
// extended slice — the exact bytes Append would write, exposed so the
// replication stream can be built and compared against raw log images.
func EncodeFrame(dst []byte, rec Record) []byte {
	return encode(dst, rec)
}

// ParseFrame examines the first record frame in data (a log image with
// the file header already stripped). It returns the decoded record and
// the frame's total byte length. The error distinguishes the two ways a
// stream can end early: ErrTorn (wrapped) means data holds only a
// prefix of a frame — on a live replication stream the remainder is
// simply still in flight — while ErrCorrupt means the bytes can never
// be a valid frame and the stream must be rejected from here on.
func ParseFrame(data []byte) (rec Record, frameSize int64, err error) {
	if int64(len(data)) < frameLen {
		return Record{}, 0, fmt.Errorf("%w: %d-byte frame header", ErrTorn, len(data))
	}
	plen := int64(binary.LittleEndian.Uint32(data))
	crc := binary.LittleEndian.Uint32(data[4:])
	if plen < 1 || plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if plen > int64(len(data))-frameLen {
		return Record{}, 0, fmt.Errorf("%w: %d-byte payload, %d present", ErrTorn, plen, int64(len(data))-frameLen)
	}
	payload := data[frameLen : frameLen+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	rec, derr := decodePayload(payload)
	if derr != nil {
		return Record{}, 0, derr
	}
	return rec, frameLen + plen, nil
}

// Writer appends records to one WAL file. It is safe for one appender
// racing a background Sync (the interval fsync policy); the collection's
// write lock serializes appenders.
type Writer struct {
	mu      sync.Mutex
	f       iofs.File
	size    int64
	records int64
	buf     []byte
	err     error // sticky: a writer that failed once stays failed
}

// Create creates (or truncates) a WAL file and writes its header. The
// parent directory is fsynced before Create returns: a record fsynced
// into the file is only durable if the file's directory entry is too.
func Create(fs iofs.FS, name string) (*Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(filepath.Dir(name)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, size: int64(headerLen)}, nil
}

// OpenAppendAt opens an existing WAL for appending after the caller read
// and decoded it (the recovery replay does — re-reading a multi-megabyte
// WAL just to find its truncation point would double every cold open's
// I/O): good and records are DecodeAll's results and fileLen the image
// length. Any torn tail left by a crash is truncated away first, so new
// records land on a valid record boundary and stay reachable by the next
// replay. good == 0 (unreadable header) starts the log over.
func OpenAppendAt(fs iofs.FS, name string, good, records, fileLen int64) (*Writer, error) {
	if good == 0 {
		return Create(fs, name)
	}
	if good < fileLen {
		if err := fs.Truncate(name, good); err != nil {
			return nil, err
		}
	}
	f, err := fs.Append(name)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, size: good, records: records}, nil
}

// Append logs one record, fsyncing before returning when syncNow is set
// (the fsync=always policy: the record is durable before the mutation is
// acknowledged). The first error is sticky: once an append fails the
// writer refuses further records, because a hole in the log would
// detach everything after it.
func (w *Writer) Append(rec Record, syncNow bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = encode(w.buf[:0], rec)
	return w.appendLocked(w.buf, syncNow)
}

// AppendRaw logs one pre-encoded record frame verbatim — the
// replication apply path, where a follower mirrors the leader's log
// bytes so its file stays an exact byte prefix of the leader's. The
// frame must be exactly one valid frame; AppendRaw re-validates before
// writing so a corrupt stream can never reach the log.
func (w *Writer) AppendRaw(frame []byte, syncNow bool) error {
	if _, n, err := ParseFrame(frame); err != nil {
		return err
	} else if n != int64(len(frame)) {
		return fmt.Errorf("%w: %d trailing bytes after frame", ErrCorrupt, int64(len(frame))-n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.appendLocked(frame, syncNow)
}

// appendLocked writes one already-encoded frame. On a failed fsync the
// size and record gauges are rolled back: the bytes may be in the file,
// but the record was never acknowledged and the collection checkpoints
// past this log (recoverFromLogFailure), so the acked size must never
// include it — it is the high-water mark the replication stream serves
// up to.
func (w *Writer) appendLocked(frame []byte, syncNow bool) error {
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return w.err
	}
	w.size += int64(len(frame))
	w.records++
	if syncNow {
		if err := w.f.Sync(); err != nil {
			w.size -= int64(len(frame))
			w.records--
			w.err = fmt.Errorf("wal: sync: %w", err)
			return w.err
		}
	}
	return nil
}

// Sync flushes appended records to stable storage (the interval policy's
// ticker, and clean shutdown).
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: sync: %w", err)
		return w.err
	}
	return nil
}

// Size returns the log's current byte length — the gauge checkpoint
// scheduling triggers on.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records returns how many records the log holds — the replay cost of a
// crash right now.
func (w *Writer) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Close releases the file handle without an implied sync.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
