package vstore

// This file implements the v2 sealed-segment encoding: the mmap-native,
// column-major on-disk layout of every sealed segment file (seg-<id>.seg),
// format 2 in the manifest. The design goal is that
// the search kernels read the file's bytes directly — a mapped segment's
// Column(d) is a []float64 aliasing the mapping — so opening a collection
// costs O(manifest) and the operating system pages columns in on first
// touch, instead of a parse-everything-into-heap load.
//
//	offset                      content
//	0                           magic "BONDSG2\x00"
//	8                           u32 layout version (currently 1)
//	12                          u32 reserved (0)
//	16                          u64 rows
//	24                          u64 dims
//	32                          f64 minVal, f64 maxVal
//	48                          f64 dimMin[dims], f64 dimMax[dims]
//	48+16·dims                  u64 colOff[dims+1]  (dims columns, then totals)
//	…                           u32 dataCRC   (CRC32 over every column payload)
//	…                           u32 headerCRC (CRC32 over all preceding bytes)
//	colOff[0] (64-byte aligned) column 0: rows little-endian float64
//	colOff[d]                   column d, each 64-byte aligned
//	colOff[dims]                totals column
//
// All integers and floats are little-endian. Every column offset is
// 64-byte aligned so a page-aligned mapping gives cache-line-aligned,
// 8-byte-aligned float64 slices the SIMD kernels can load directly. The
// per-dimension synopsis lives in the header, so synopses (the planner's
// only eager read) never fault a data page in.
//
// Tombstones are deliberately absent: they keep changing and belong to
// the manifest, which is what lets the file be written exactly once and
// stay byte-stable forever (the PR 5 write-once contract).
//
// Integrity is two-tier, matching the two read paths. The header CRC
// covers everything the loader trusts eagerly (shape, synopsis, offsets)
// and is always verified — a corrupt header fails closed before any
// column is exposed. The data CRC covers the column payload and is
// verified by the read-into-heap path (which touches every byte anyway);
// the mmap path skips it, because verifying would fault in the whole
// file and defeat the O(manifest) open. That trade — eager metadata
// validation, lazy data faulting — is the standard mmap-database
// contract, and the checkpoint writer fsyncs the payload before the
// manifest commits, so a committed file's bytes are the written ones.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"bond/internal/bitmap"
)

const (
	segV2Magic = "BONDSG2\x00"
	segV2Ver   = uint32(1)
	// segV2Align is the alignment of every column offset: one cache line,
	// so mapped columns are both 8-byte aligned (float64 loads) and
	// cache-line aligned (no split lines at column starts).
	segV2Align = 64
	// maxSegRows bounds a plausible single-segment row count.
	maxSegRows = 1 << 31
)

// segV2HeaderSize returns the byte length of the header (everything
// before the first column), excluding alignment padding.
func segV2HeaderSize(dims int) int {
	return 8 + 4 + 4 + 8 + 8 + // magic, version, reserved, rows, dims
		16 + 16*dims + // minVal/maxVal + dimMin/dimMax
		8*(dims+1) + // column offsets
		4 + 4 // dataCRC, headerCRC
}

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// segV2Layout computes the column offsets for a rows×dims segment: the
// header padded up to 64, then each column padded up to 64.
func segV2Layout(rows, dims int) (colOff []int, fileSize int) {
	colOff = make([]int, dims+1)
	off := alignUp(segV2HeaderSize(dims), segV2Align)
	colBytes := rows * 8
	for c := 0; c <= dims; c++ {
		colOff[c] = off
		off += alignUp(colBytes, segV2Align)
	}
	// The file ends where the totals column's data does — the last
	// column needs no tail padding.
	return colOff, colOff[dims] + colBytes
}

// WriteSegmentV2 writes the store's columns in the v2 column-major
// layout. Tombstones are not written (they belong to the manifest); the
// store's synopsis fields go into the header verbatim.
func (s *Store) WriteSegmentV2(w io.Writer) error {
	colOff, _ := segV2Layout(s.n, s.dims)

	// Data CRC first: it is part of the header, so the payload is hashed
	// before any header byte is emitted.
	dataCRC := crc32.NewIEEE()
	colBits := func(sink io.Writer, col []float64) error {
		var buf [8]byte
		for _, x := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			if _, err := sink.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	for d := 0; d < s.dims; d++ {
		if err := colBits(dataCRC, s.columns[d]); err != nil {
			return err
		}
	}
	if err := colBits(dataCRC, s.totals); err != nil {
		return err
	}

	hdr := make([]byte, 0, segV2HeaderSize(s.dims))
	hdr = append(hdr, segV2Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segV2Ver)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.dims))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(s.minVal))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(s.maxVal))
	for d := 0; d < s.dims; d++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(s.dimMin[d]))
	}
	for d := 0; d < s.dims; d++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(s.dimMax[d]))
	}
	for _, off := range colOff {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, dataCRC.Sum32())
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	pad := make([]byte, segV2Align)
	written := len(hdr)
	emitPad := func(upto int) error {
		for written < upto {
			n := upto - written
			if n > len(pad) {
				n = len(pad)
			}
			m, err := w.Write(pad[:n])
			written += m
			if err != nil {
				return err
			}
		}
		return nil
	}
	writeCol := func(c int, col []float64) error {
		if err := emitPad(colOff[c]); err != nil {
			return err
		}
		cw := countingWriter{w: w}
		if err := colBits(&cw, col); err != nil {
			return err
		}
		written += cw.n
		return nil
	}
	for d := 0; d < s.dims; d++ {
		if err := writeCol(d, s.columns[d]); err != nil {
			return err
		}
	}
	return writeCol(s.dims, s.totals)
}

type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// DecodeSegmentV2 parses a v2 segment image read fully into the heap,
// verifying both the header and the data CRC, and returns a store whose
// columns alias the image (one copy total: the read itself). A malformed
// or corrupt image errors with ErrCorrupt; it never panics and never
// exposes unvalidated bytes as columns.
func DecodeSegmentV2(data []byte) (*Store, error) {
	return decodeSegmentV2(data, true)
}

// MapSegmentV2 builds a store over a memory-mapped v2 segment image:
// header and synopsis are validated eagerly (header CRC), columns alias
// the mapping and fault in on first scan. The data CRC is NOT verified —
// that would page the whole file in (see the format comment).
func MapSegmentV2(data []byte) (*Store, error) {
	return decodeSegmentV2(data, false)
}

func decodeSegmentV2(data []byte, verifyData bool) (*Store, error) {
	if len(data) < len(segV2Magic) || string(data[:len(segV2Magic)]) != segV2Magic {
		return nil, fmt.Errorf("%w: bad v2 segment magic", ErrCorrupt)
	}
	if len(data) < segV2HeaderSize(1) {
		return nil, fmt.Errorf("%w: %d-byte v2 segment", ErrCorrupt, len(data))
	}
	ver := binary.LittleEndian.Uint32(data[8:])
	if ver != segV2Ver {
		return nil, fmt.Errorf("%w: unsupported v2 segment layout %d", ErrCorrupt, ver)
	}
	rows64 := binary.LittleEndian.Uint64(data[16:])
	dims64 := binary.LittleEndian.Uint64(data[24:])
	if dims64 < 1 || dims64 > 1<<20 || rows64 > maxSegRows {
		return nil, fmt.Errorf("%w: implausible v2 segment rows=%d dims=%d", ErrCorrupt, rows64, dims64)
	}
	rows, dims := int(rows64), int(dims64)
	hdrSize := segV2HeaderSize(dims)
	if len(data) < hdrSize {
		return nil, fmt.Errorf("%w: v2 segment truncated inside header (%d < %d bytes)",
			ErrCorrupt, len(data), hdrSize)
	}
	// Header CRC covers everything before itself; validate before any
	// header field beyond the lengths just used to locate it is trusted.
	wantHdr := binary.LittleEndian.Uint32(data[hdrSize-4:])
	if crc32.ChecksumIEEE(data[:hdrSize-4]) != wantHdr {
		return nil, fmt.Errorf("%w: v2 segment header checksum mismatch", ErrCorrupt)
	}

	off := 32
	readF64 := func() float64 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return x
	}
	s := New(dims)
	s.n = rows
	s.minVal = readF64()
	s.maxVal = readF64()
	for d := 0; d < dims; d++ {
		s.dimMin[d] = readF64()
	}
	for d := 0; d < dims; d++ {
		s.dimMax[d] = readF64()
	}
	colBytes := rows * 8
	colOff := make([]int, dims+1)
	for c := range colOff {
		o := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if o%segV2Align != 0 {
			return nil, fmt.Errorf("%w: v2 segment column %d at misaligned offset %d", ErrCorrupt, c, o)
		}
		if o < uint64(hdrSize) || o > uint64(len(data)) || uint64(len(data))-o < uint64(colBytes) {
			return nil, fmt.Errorf("%w: v2 segment column %d outside file (offset %d of %d bytes)",
				ErrCorrupt, c, o, len(data))
		}
		if c > 0 && o < uint64(colOff[c-1]+colBytes) {
			return nil, fmt.Errorf("%w: v2 segment column %d overlaps column %d", ErrCorrupt, c, c-1)
		}
		colOff[c] = int(o)
	}
	if got, want := len(data), colOff[dims]+colBytes; got != want {
		return nil, fmt.Errorf("%w: v2 segment is %d bytes, layout wants %d", ErrCorrupt, got, want)
	}
	dataCRC := binary.LittleEndian.Uint32(data[hdrSize-8:])
	if verifyData {
		crc := crc32.NewIEEE()
		for _, o := range colOff {
			crc.Write(data[o : o+colBytes])
		}
		if crc.Sum32() != dataCRC {
			return nil, fmt.Errorf("%w: v2 segment data checksum mismatch", ErrCorrupt)
		}
	}

	for c, o := range colOff {
		col := aliasFloats(data, o, rows)
		if c < dims {
			s.columns[c] = col
		} else {
			s.totals = col
		}
	}
	s.deleted = bitmap.New(rows)
	return s, nil
}

// aliasFloats reinterprets rows little-endian float64 starting at
// data[off] as a []float64 without copying. The offset is 64-aligned and
// Go heap/mmap allocations are at least 8-aligned, so the cast is safe;
// the one theoretical exception (a misaligned base pointer) falls back
// to a copy so behavior stays correct everywhere.
func aliasFloats(data []byte, off, rows int) []float64 {
	if rows == 0 {
		return nil
	}
	p := unsafe.Pointer(&data[off])
	if uintptr(p)%8 != 0 {
		col := make([]float64, rows)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+i*8:]))
		}
		return col
	}
	return unsafe.Slice((*float64)(p), rows)
}
