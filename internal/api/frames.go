package api

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
)

// FramesType is the media type of an ingest's vectors as raw float64
// frames: a u32 little-endian count, a u32 little-endian dims, then
// count·dims float64 values, little-endian and row-major. The coordinator
// sends its shards an ingest this way, so that no coordinate is printed
// and parsed again on the internal hop. It is not part of the public API,
// which speaks JSON only, and it is not a stability contract.
const FramesType = "application/x-bond-frames"

// JSONType is the media type of every other body.
const JSONType = "application/json"

// expBits is the exponent field of a float64; it is all ones exactly when
// the value is NaN or ±Inf.
const expBits = 0x7ff0_0000_0000_0000

// AppendVectors appends vectors to b as one frames body. There must be at
// least one vector, and all must have the length of the first; a ragged
// batch makes a body DecodeVectors refuses.
func AppendVectors(b []byte, vectors [][]float64) []byte {
	dims := len(vectors[0])
	b = slices.Grow(b, 8+8*len(vectors)*dims)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vectors)))
	b = binary.LittleEndian.AppendUint32(b, uint32(dims))
	for _, v := range vectors {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// DecodeVectors decodes a frames body. It refuses a body that is not
// exactly a header and the count·dims values it announces, a count or
// dims of zero, and a NaN or ±Inf coordinate, naming the vector and the
// coordinate: JSON cannot carry one, and no collection takes one. The
// vectors are cut from one backing array, each with cap == len so that
// appending to one cannot overwrite the next.
func DecodeVectors(data []byte) ([][]float64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("bad request body: vector frames: %d bytes, shorter than the 8-byte header", len(data))
	}
	count, dims := binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:])
	if count == 0 || dims == 0 {
		return nil, fmt.Errorf("bad request body: vector frames: %d vectors of %d dims", count, dims)
	}
	// Divisions rather than a product, so that no header can overflow the
	// check.
	payload := uint64(len(data) - 8)
	values := payload / 8
	if payload%8 != 0 || values%uint64(count) != 0 || values/uint64(count) != uint64(dims) {
		return nil, fmt.Errorf("bad request body: vector frames: %d bytes do not hold %d vectors of %d dims", len(data), count, dims)
	}
	n := int(dims)
	all := make([]float64, values)
	src := data[8:]
	for i := range all {
		bits := binary.LittleEndian.Uint64(src)
		if bits&expBits == expBits {
			return nil, fmt.Errorf("bad request body: vector %d coordinate %d is %v", i/n, i%n, math.Float64frombits(bits))
		}
		all[i] = math.Float64frombits(bits)
		src = src[8:]
	}
	out := make([][]float64, count)
	for i := range out {
		out[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return out, nil
}

// readVectors reads a frames request body under the size cap and decodes
// it.
func readVectors(w http.ResponseWriter, r *http.Request, maxBytes int64) ([][]float64, error) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, maxBytes), min(r.ContentLength, maxBytes))
	defer body.Release()
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return DecodeVectors(body.B)
}
