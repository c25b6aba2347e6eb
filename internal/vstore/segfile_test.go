package vstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"bond/internal/crashfs"
)

func buildV2Store(t testing.TB, rng *rand.Rand, rows, dims int) *Store {
	t.Helper()
	st := New(dims)
	for i := 0; i < rows; i++ {
		st.Append(randVec(rng, dims))
	}
	return st
}

func encodeV2(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSegmentV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameColumns(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || got.Dims() != want.Dims() {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, got.Len(), got.Dims(), want.Len(), want.Dims())
	}
	for d := 0; d < want.Dims(); d++ {
		for i := 0; i < want.Len(); i++ {
			if g, w := got.columns[d][i], want.columns[d][i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: column %d row %d: %v vs %v", label, d, i, g, w)
			}
		}
		if got.dimMin[d] != want.dimMin[d] || got.dimMax[d] != want.dimMax[d] {
			t.Fatalf("%s: dim %d synopsis differs", label, d)
		}
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(got.totals[i]) != math.Float64bits(want.totals[i]) {
			t.Fatalf("%s: totals row %d differ", label, i)
		}
	}
	if got.minVal != want.minVal || got.maxVal != want.maxVal {
		t.Fatalf("%s: value range differs", label)
	}
}

// TestSegmentV2RoundTrip pins the v2 codec: both the heap decoder
// (DecodeSegmentV2) and the mapping decoder (MapSegmentV2) reproduce the
// written store bit-for-bit — columns, totals, and every synopsis field.
func TestSegmentV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ rows, dims int }{
		{0, 1}, {1, 1}, {7, 3}, {64, 5}, {100, 16},
	} {
		st := buildV2Store(t, rng, shape.rows, shape.dims)
		img := encodeV2(t, st)
		dec, err := DecodeSegmentV2(img)
		if err != nil {
			t.Fatalf("%d×%d decode: %v", shape.rows, shape.dims, err)
		}
		assertSameColumns(t, "decode", dec, st)
		mapped, err := MapSegmentV2(img)
		if err != nil {
			t.Fatalf("%d×%d map: %v", shape.rows, shape.dims, err)
		}
		assertSameColumns(t, "map", mapped, st)
	}
}

// TestSegmentV2ColumnsAlias pins the zero-copy contract mmap depends on:
// a mapped store's columns alias the image bytes, so scans read the
// file's pages directly instead of a heap copy.
func TestSegmentV2ColumnsAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	st := buildV2Store(t, rng, 16, 3)
	img := encodeV2(t, st)
	mapped, err := MapSegmentV2(img)
	if err != nil {
		t.Fatal(err)
	}
	colOff, _ := segV2Layout(16, 3)
	binary.LittleEndian.PutUint64(img[colOff[0]:], math.Float64bits(42.5))
	if mapped.columns[0][0] != 42.5 {
		t.Fatal("mapped column does not alias the image")
	}
}

// TestSegmentV2CorruptFailsClosed sweeps corruption over a valid image:
// every single-byte flip in the header region must be rejected by both
// decoders (header CRC), any data flip must be rejected by the verifying
// heap decoder (data CRC), and truncation at every boundary of interest
// must error — never panic, never yield a store over corrupt bytes.
func TestSegmentV2CorruptFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := buildV2Store(t, rng, 9, 4)
	img := encodeV2(t, st)
	hdrSize := segV2HeaderSize(4)

	for i := 0; i < hdrSize; i++ {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x40
		if _, err := DecodeSegmentV2(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header flip at %d: decode err = %v, want ErrCorrupt", i, err)
		}
		if _, err := MapSegmentV2(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header flip at %d: map err = %v, want ErrCorrupt", i, err)
		}
	}

	// Data flips: the verifying decoder catches every one via the data
	// CRC. (The mapping decoder deliberately does not read data pages —
	// that contract is documented in the format comment.)
	colOff, fileSize := segV2Layout(9, 4)
	if fileSize != len(img) {
		t.Fatalf("layout says %d bytes, writer produced %d", fileSize, len(img))
	}
	for _, off := range []int{colOff[0], colOff[1] + 17, colOff[4], len(img) - 1} {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x01
		if _, err := DecodeSegmentV2(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("data flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}

	for _, cut := range []int{0, 4, len(segV2Magic), hdrSize - 1, hdrSize, colOff[0] + 8, len(img) - 1} {
		if _, err := DecodeSegmentV2(img[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d: decode err = %v, want ErrCorrupt", cut, err)
		}
		if _, err := MapSegmentV2(img[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d: map err = %v, want ErrCorrupt", cut, err)
		}
	}

	// Trailing garbage changes the file size the offsets promised.
	if _, err := DecodeSegmentV2(append(append([]byte(nil), img...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("oversized image accepted")
	}
}

// TestRecoverDirCorruptSegV2FailsClosed pins fail-closed at the recovery
// layer: a checkpointed directory whose sealed v2 segment file is
// corrupted must refuse to open on both backings — the mapped path via
// the eagerly verified header, the heap path via either CRC.
func TestRecoverDirCorruptSegV2FailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fs := crashfs.NewMemFS()
	s := buildSegmented(t, rng, 64, 3, 32)
	cs := checkpointTo(t, fs, "col", s, 1)
	segName := filepath.Join("col", SegFileName(cs.Sealed[0].ID))
	orig, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegmentV2(orig); err != nil {
		t.Fatalf("checkpoint did not write a v2 segment: %v", err)
	}

	write := func(b []byte) {
		f, err := fs.Create(segName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	hdrSize := segV2HeaderSize(3)
	for name, mut := range map[string][]byte{
		"header flip": func() []byte {
			b := append([]byte(nil), orig...)
			b[hdrSize/2] ^= 0xff
			return b
		}(),
		"truncated":   orig[:len(orig)/2],
		"wrong magic": append([]byte("BONDSG9\x00"), orig[8:]...),
	} {
		write(mut)
		for _, disable := range []bool{false, true} {
			if _, _, err := RecoverDir(fs, "col", RecoverOptions{DisableMmap: disable}); err == nil {
				t.Fatalf("%s (disableMmap=%v): corrupt segment recovered", name, disable)
			}
		}
	}
	// A flipped data byte is only promised to the verifying heap path —
	// the mapped path skips the data CRC by design (see the format
	// comment), so it is asserted under DisableMmap alone.
	dataFlip := append([]byte(nil), orig...)
	dataFlip[len(orig)-3] ^= 0x01
	write(dataFlip)
	if _, _, err := RecoverDir(fs, "col", RecoverOptions{DisableMmap: true}); err == nil {
		t.Fatal("data flip: corrupt segment recovered on the heap path")
	}
	write(orig)
	if _, _, err := RecoverDir(fs, "col", RecoverOptions{}); err != nil {
		t.Fatalf("restored directory fails: %v", err)
	}
}

// segV2Remangle recomputes the header CRC after a deliberate header
// mutation, so the image reaches the validation the mutation targets
// instead of tripping on the checksum first.
func segV2Remangle(img []byte, dims int) []byte {
	hdrSize := segV2HeaderSize(dims)
	binary.LittleEndian.PutUint32(img[hdrSize-4:], crc32.ChecksumIEEE(img[:hdrSize-4]))
	return img
}

// TestSegmentV2RejectsMisalignedAndOverlappingOffsets targets the offset
// validation with header CRCs recomputed, so each bad offset table is
// seen by the structural checks themselves.
func TestSegmentV2RejectsMisalignedAndOverlappingOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const dims = 3
	st := buildV2Store(t, rng, 8, dims)
	img := encodeV2(t, st)
	offField := func(b []byte, c int) []byte { return b[48+16*dims+8*c:] }

	mut := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(offField(mut, 0), binary.LittleEndian.Uint64(offField(mut, 0))+8)
	if _, err := DecodeSegmentV2(segV2Remangle(mut, dims)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misaligned column offset: %v", err)
	}

	mut = append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(offField(mut, 1), binary.LittleEndian.Uint64(offField(mut, 0)))
	if _, err := DecodeSegmentV2(segV2Remangle(mut, dims)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping columns: %v", err)
	}

	mut = append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(offField(mut, dims), uint64(len(img))+segV2Align)
	if _, err := DecodeSegmentV2(segV2Remangle(mut, dims)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("column past EOF: %v", err)
	}

	// An offset pointing into the header would let column writes reach
	// validated metadata on a read-write mapping.
	mut = append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(offField(mut, 0), 0)
	if _, err := DecodeSegmentV2(segV2Remangle(mut, dims)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("column inside header: %v", err)
	}
}
