package api

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The codec beside encoding/json on the bodies the benchmark workloads
// send: 64-d queries of uniform floats (k=10, eq, bond), 32-spec batches,
// 64-vector ingests, and 10-neighbor answers. Run with -benchmem: a query
// or batch decode allocates once per query vector plus a constant, an
// ingest decode a constant (its vectors share one array), an encode into
// a reused buffer not at all. The *IngestFrames benchmarks put the float64
// frames beside JSON on the sub-batch a 2-shard coordinator sends one
// shard of a 64-vector ingest: 32 vectors of 32 dims.

const benchDims = 64

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

func benchSpec(rng *rand.Rand) QuerySpec {
	return QuerySpec{Query: randVector(rng, benchDims), K: 10, Criterion: "eq", Strategy: "bond"}
}

func benchAnswer(rng *rand.Rand) QueryResponse {
	r := QueryResponse{
		Results: make([]Neighbor, 10),
		Stats:   QueryStats{ValuesScanned: 9317, FinalCandidates: 10, SegmentsSearched: 1, SegmentsSkipped: 95},
	}
	for i := range r.Results {
		r.Results[i] = Neighbor{ID: rng.Intn(100000), Score: 2 + rng.Float64()}
	}
	return r
}

// benchDecode times decoding body into a fresh *T through DecodeBody
// ("codec") and through the streaming json.Decoder it replaces.
func benchDecode[T any](b *testing.B, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	rd := &rewindBody{}
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	w := httptest.NewRecorder()
	run := func(b *testing.B, decode func(*T) error) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			r.Body = rd
			var out T
			if err := decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("codec", func(b *testing.B) {
		run(b, func(out *T) error { return DecodeBody(w, r, 64<<20, out) })
	})
	b.Run("encoding_json", func(b *testing.B) {
		run(b, func(out *T) error {
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
			dec.DisallowUnknownFields()
			return dec.Decode(out)
		})
	})
}

func BenchmarkDecodeQuerySpec(b *testing.B) {
	spec := benchSpec(rand.New(rand.NewSource(1)))
	benchDecode[QuerySpec](b, &spec)
}

func BenchmarkDecodeBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := BatchRequest{Queries: make([]QuerySpec, 32)}
	for i := range req.Queries {
		req.Queries[i] = benchSpec(rng)
	}
	benchDecode[BatchRequest](b, &req)
}

func BenchmarkDecodeIngest64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := IngestRequest{Vectors: make([][]float64, 64)}
	for i := range req.Vectors {
		req.Vectors[i] = randVector(rng, benchDims)
	}
	benchDecode[IngestRequest](b, &req)
}

// benchEncode times encoding v into a reused buffer with the append
// encoders ("codec") and with json.Encoder, which WriteJSON replaces.
func benchEncode(b *testing.B, v any) {
	var buf []byte
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendJSON(buf[:0], v); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := enc.Encode(v); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(out.Len()))
	})
}

func BenchmarkEncodeQuery(b *testing.B) {
	answer := benchAnswer(rand.New(rand.NewSource(1)))
	benchEncode(b, &answer)
}

func BenchmarkEncodeBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	out := BatchResponse{Results: make([]QueryResponse, 32)}
	for i := range out.Results {
		out.Results[i] = benchAnswer(rng)
	}
	benchEncode(b, &out)
}

// ingestSubBatch is a coordinator's 32 × 32 sub-batch of uniform floats.
func ingestSubBatch() [][]float64 {
	rng := rand.New(rand.NewSource(1))
	vectors := make([][]float64, 32)
	for i := range vectors {
		vectors[i] = randVector(rng, 32)
	}
	return vectors
}

// BenchmarkEncodeIngestFrames times a sub-batch's body into a reused
// buffer as frames and as the JSON Marshal writes for it.
func BenchmarkEncodeIngestFrames(b *testing.B) {
	vectors := ingestSubBatch()
	var buf []byte
	b.Run("frames", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendVectors(buf[:0], vectors)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("json", func(b *testing.B) {
		req := IngestRequest{Vectors: vectors}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendJSON(buf[:0], &req); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}

// BenchmarkDecodeIngestFrames times a shard reading a sub-batch's body
// from its request, as frames and as JSON.
func BenchmarkDecodeIngestFrames(b *testing.B) {
	vectors := ingestSubBatch()
	frames := AppendVectors(nil, vectors)
	rd := &rewindBody{}
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	w := httptest.NewRecorder()
	b.Run("frames", func(b *testing.B) {
		b.SetBytes(int64(len(frames)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(frames)
			r.Body = rd
			if _, err := readVectors(w, r, 64<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		body, err := json.Marshal(&IngestRequest{Vectors: vectors})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			r.Body = rd
			var out IngestRequest
			if err := DecodeBody(w, r, 64<<20, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
