package wal

import (
	"testing"

	"bond/internal/crashfs"
)

// FuzzWALDecode hammers DecodeAll with arbitrary byte images. The
// invariants under fuzz are exactly the recovery contract's: never
// panic, never claim more good bytes than exist, never hand back a
// record that does not re-encode to the bytes it was decoded from, and
// never allocate unboundedly from a hostile length field (the test
// binary's default memory limits catch that as an OOM).
//
// The seed corpus in testdata/fuzz/FuzzWALDecode holds valid logs of
// every record type plus torn and bit-flipped variants.
func FuzzWALDecode(f *testing.F) {
	mem := crashfs.NewMemFS()
	w, err := Create(mem, "seed.log")
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeAdd, Vectors: [][]float64{{0.1, 0.9}}},
		{Type: TypeAddBatch, Vectors: [][]float64{{1, 2}, {3, 4}, {5, 6}}},
		{Type: TypeDelete, ID: 3},
		{Type: TypeCompact, Ratio: 0.5},
		{Type: TypeSeal},
		{Type: TypeRecluster, K: 8, Seed: 1},
	} {
		if err := w.Append(rec, false); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, _ := mem.ReadFile("seed.log")
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("BONDWAL1"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, _ := DecodeAll(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		// Re-encode what decoded: the valid prefix must reproduce the
		// input bytes exactly (decode and encode are inverses on the
		// accepted region).
		buf := make([]byte, 0, good)
		if good > 0 {
			buf = append(buf, data[:headerLen]...)
			for _, rec := range recs {
				buf = encode(buf, rec)
			}
			if int64(len(buf)) != good {
				t.Fatalf("re-encoded prefix %d bytes, good %d", len(buf), good)
			}
			for i := range buf {
				if buf[i] != data[i] {
					t.Fatalf("re-encode mismatch at byte %d", i)
				}
			}
		}
	})
}
