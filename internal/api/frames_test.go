package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// randBitsFinite returns a float64 of uniformly random bits, with the
// exponent's top bit cleared when the bits spell a NaN or an infinity.
func randBitsFinite(rng *rand.Rand) float64 {
	b := rng.Uint64()
	if b&expBits == expBits {
		b &^= 1 << 62
	}
	return math.Float64frombits(b)
}

// frame builds a frames body by hand: the header as given, then values.
func frame(count, dims uint32, values ...float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	b = binary.LittleEndian.AppendUint32(b, dims)
	for _, x := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// TestVectorFrames round-trips vectors of random finite bits and the
// edge values bit for bit, and checks every body DecodeVectors refuses.
func TestVectorFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), -math.Float64frombits(0x0000_0000_dead_beef),
		math.MaxFloat64, -math.MaxFloat64, 1, -1}
	for _, shape := range [][2]int{{1, 1}, {1, len(edges)}, {32, 32}, {7, 3}, {64, 64}, {1, 4096}} {
		vectors := make([][]float64, shape[0])
		for i := range vectors {
			vectors[i] = make([]float64, shape[1])
			for d := range vectors[i] {
				vectors[i][d] = randBitsFinite(rng)
			}
		}
		if shape[1] == len(edges) {
			copy(vectors[0], edges)
		}
		prefix := []byte("kept")
		body := AppendVectors(prefix, vectors)
		if !bytes.Equal(body[:len(prefix)], prefix) || len(body) != len(prefix)+8+8*shape[0]*shape[1] {
			t.Fatalf("%v: AppendVectors wrote %d bytes after the prefix, want %d", shape, len(body)-len(prefix), 8+8*shape[0]*shape[1])
		}
		got, err := DecodeVectors(body[len(prefix):])
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if len(got) != len(vectors) {
			t.Fatalf("%v: decoded %d vectors", shape, len(got))
		}
		for i, v := range got {
			if len(v) != shape[1] || cap(v) != len(v) {
				t.Fatalf("%v: vector %d has len %d cap %d, want both %d", shape, i, len(v), cap(v), shape[1])
			}
			for d, x := range v {
				if math.Float64bits(x) != math.Float64bits(vectors[i][d]) {
					t.Fatalf("%v: vector %d coordinate %d: %x, sent %x", shape, i, d, math.Float64bits(x), math.Float64bits(vectors[i][d]))
				}
			}
		}
	}

	two := frame(1, 2, 0.25, 0.5)
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "0 bytes, shorter than the 8-byte header"},
		{"short header", two[:7], "7 bytes, shorter than the 8-byte header"},
		{"no vectors", frame(0, 2), "0 vectors of 2 dims"},
		{"no dims", frame(3, 0), "3 vectors of 0 dims"},
		{"short body", two[:len(two)-1], "23 bytes do not hold 1 vectors of 2 dims"},
		{"trailing byte", append(frame(1, 2, 0.25, 0.5), 0), "25 bytes do not hold 1 vectors of 2 dims"},
		{"trailing value", frame(1, 2, 0.25, 0.5, 0.75), "32 bytes do not hold 1 vectors of 2 dims"},
		{"header only", frame(1, 2), "8 bytes do not hold 1 vectors of 2 dims"},
		// 8·count·dims is 2^65 here, which a product checked in 64 bits
		// would wrap to 0 and take an empty payload for.
		{"overflowing header", frame(1<<31, 1<<31), "8 bytes do not hold 2147483648 vectors of 2147483648 dims"},
		{"largest header", frame(math.MaxUint32, math.MaxUint32, 1), "16 bytes do not hold 4294967295 vectors of 4294967295 dims"},
		{"NaN", frame(2, 3, 0, 0, 0, 0, 0, math.NaN()), "vector 1 coordinate 2 is NaN"},
		{"NaN payload", append(frame(1, 2, 1), binary.LittleEndian.AppendUint64(nil, 0x7ff0_0000_0000_0001)...), "vector 0 coordinate 1 is NaN"},
		{"+Inf", frame(1, 2, math.Inf(1), 0), "vector 0 coordinate 0 is +Inf"},
		{"-Inf", frame(3, 1, 0, 0, math.Inf(-1)), "vector 2 coordinate 0 is -Inf"},
	} {
		got, err := DecodeVectors(tc.body)
		if err == nil || got != nil {
			t.Fatalf("%s: accepted %v", tc.name, got)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "bad request body: ") || !strings.HasSuffix(msg, tc.want) {
			t.Fatalf("%s: error %q, want \"bad request body: …%s\"", tc.name, msg, tc.want)
		}
	}
}

// wellFormed is DecodeVectors' contract stated independently: a header
// with a count and dims of at least one, exactly 8·count·dims bytes of
// values after it, none of them NaN or ±Inf.
func wellFormed(data []byte) bool {
	if len(data) < 8 {
		return false
	}
	count, dims := uint64(binary.LittleEndian.Uint32(data)), uint64(binary.LittleEndian.Uint32(data[4:]))
	hi, lo := bits.Mul64(count*dims, 8) // count·dims < 2^64: each is below 2^32
	if count == 0 || dims == 0 || hi != 0 || lo != uint64(len(data)-8) {
		return false
	}
	for i := 8; i < len(data); i += 8 {
		if x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:])); math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// FuzzDecodeVectors: DecodeVectors never panics, accepts exactly the
// well-formed finite bodies, and re-encodes what it accepts byte for byte.
func FuzzDecodeVectors(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	sub := make([][]float64, 4)
	for i := range sub {
		sub[i] = randVector(rng, 8)
	}
	for _, body := range [][]byte{
		nil, frame(1, 1, 0), frame(1, 2, 0.25, 0.5), AppendVectors(nil, sub),
		frame(0, 2), frame(1, 0), frame(1, 2, 0.25), frame(1<<31, 1<<31),
		frame(1, 2, math.NaN(), 0), frame(2, 1, 0, math.Inf(-1)),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeVectors(data)
		if want := wellFormed(data); (err == nil) != want {
			t.Fatalf("well-formed %v, DecodeVectors error %v", want, err)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "bad request body: ") {
				t.Fatalf("error %q lacks the bad request body prefix", err)
			}
			return
		}
		dims := int(binary.LittleEndian.Uint32(data[4:]))
		for i, v := range got {
			if len(v) != dims || cap(v) != dims {
				t.Fatalf("vector %d has len %d cap %d, want %d", i, len(v), cap(v), dims)
			}
		}
		if back := AppendVectors(nil, got); !bytes.Equal(back, data) {
			t.Fatalf("re-encoded %x, decoded from %x", back, data)
		}
	})
}
