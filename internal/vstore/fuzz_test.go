package vstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeedStore renders a small valid flat-store image.
func fuzzSeedStore(tb testing.TB) []byte {
	st := New(3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		st.Append(randVec(rng, 3))
	}
	st.Delete(4)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedManifest is a small manifest with tombstones in one segment.
var fuzzSeedManifest = &Manifest{
	Dims:      3,
	SegSize:   32,
	NextSegID: 4,
	WALSeq:    2,
	ActiveLen: 5,
	Segments: []ManifestSegment{
		{ID: 1, Len: 32, Deleted: []int{3, 31}},
		{ID: 3, Len: 32},
	},
}

// FuzzLoadStore feeds arbitrary images to the flat-store loader —
// recovery reads active checkpoints through it, so it must reject
// malformed input with an error, never panic, and never size an
// allocation from an unvalidated header field.
func FuzzLoadStore(f *testing.F) {
	valid := fuzzSeedStore(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[11] ^= 0x80
	f.Add(flipped)
	f.Add([]byte("BONDSTR1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err == nil {
			// Accepted input must round-trip.
			var buf bytes.Buffer
			if serr := st.Save(&buf); serr != nil {
				t.Fatalf("accepted store fails to re-save: %v", serr)
			}
		}
	})
}

// FuzzDecodeManifest feeds arbitrary images to the manifest decoder with
// the same no-panic, no-over-allocation contract.
func FuzzDecodeManifest(f *testing.F) {
	valid := EncodeManifest(fuzzSeedManifest)
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("BONDMAN1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		// The decoder accepts exactly what the encoder writes.
		if err == nil && !bytes.Equal(EncodeManifest(m), data) {
			t.Fatal("accepted manifest does not re-encode to its image")
		}
	})
}

// fuzzSeedSegV2 renders a small valid v2 column-major segment image.
func fuzzSeedSegV2(tb testing.TB) []byte {
	st := New(3)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		st.Append(randVec(rng, 3))
	}
	var buf bytes.Buffer
	if err := st.WriteSegmentV2(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSegV2Seeds returns the interesting corrupt variants of the valid v2
// image alongside it: a truncation inside the header, a data byte flip
// (bad data CRC behind a valid header), and a misaligned column offset
// with the header CRC recomputed so decoding reaches the alignment check.
func fuzzSegV2Seeds(tb testing.TB) map[string][]byte {
	valid := fuzzSeedSegV2(tb)
	const dims = 3
	hdrSize := segV2HeaderSize(dims)

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-5] ^= 0x01

	misaligned := append([]byte(nil), valid...)
	off := 48 + 16*dims
	binary.LittleEndian.PutUint64(misaligned[off:],
		binary.LittleEndian.Uint64(misaligned[off:])+8)
	segV2Remangle(misaligned, dims)

	return map[string][]byte{
		"seed-valid":      valid,
		"seed-torn":       valid[:hdrSize-7],
		"seed-badcrc":     badCRC,
		"seed-misaligned": misaligned,
	}
}

// FuzzDecodeSegmentV2 feeds arbitrary images to both v2 segment decoders.
// Recovery trusts these paths with raw file (and mapping) bytes, so they
// must reject malformed input with an error, never panic, and never
// expose unvalidated bytes as columns. An accepted image must round-trip
// through the writer.
func FuzzDecodeSegmentV2(f *testing.F) {
	for _, seed := range fuzzSegV2Seeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSegmentV2(data)
		if err == nil {
			var buf bytes.Buffer
			if serr := st.WriteSegmentV2(&buf); serr != nil {
				t.Fatalf("accepted segment fails to re-encode: %v", serr)
			}
			if _, rerr := DecodeSegmentV2(buf.Bytes()); rerr != nil {
				t.Fatalf("re-encoded segment rejected: %v", rerr)
			}
		}
		// The mapping decoder shares the structural validation but skips
		// the data CRC; it must uphold the same no-panic contract.
		_, _ = MapSegmentV2(data)
	})
}

// corpusEntry renders one seed in the go-fuzz corpus file format.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// TestFuzzCorpusUpToDate regenerates the checked-in seed corpora when
// VSTORE_REGEN_CORPUS=1 and otherwise verifies they are present.
func TestFuzzCorpusUpToDate(t *testing.T) {
	twoSeeds := func(data []byte) map[string][]byte {
		return map[string][]byte{
			"seed-valid": data,
			"seed-torn":  data[:len(data)-3],
		}
	}
	manifests := twoSeeds(EncodeManifest(fuzzSeedManifest))
	for found, img := range olderLayouts(t) {
		manifests["seed-"+strings.ReplaceAll(found, " ", "-")] = img
	}
	corpora := map[string]map[string][]byte{
		"FuzzLoadStore":       twoSeeds(fuzzSeedStore(t)),
		"FuzzDecodeManifest":  manifests,
		"FuzzDecodeSegmentV2": fuzzSegV2Seeds(t),
	}
	for fuzzName, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if os.Getenv("VSTORE_REGEN_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range seeds {
				if err := os.WriteFile(filepath.Join(dir, name), corpusEntry(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) < len(seeds) {
			t.Fatalf("seed corpus missing for %s (run with VSTORE_REGEN_CORPUS=1): %v", fuzzName, err)
		}
	}
}
