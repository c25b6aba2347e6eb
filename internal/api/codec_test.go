package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// strictJSON is the reference the codec is held to: what the handlers
// did before it, a streaming json.Decoder that rejects unknown fields.
func strictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeRequest runs body through DecodeBody as a handler would.
func decodeRequest(body []byte, maxBytes int64, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return DecodeBody(httptest.NewRecorder(), r, maxBytes, v)
}

// sameDecode reports how got differs from want, or "" when the two
// outcomes are the same: identical error text, or equal values whose
// floats have equal bits (a float64's shortest encoding names its bits,
// so equal encodings mean equal bits, -0 included).
func sameDecode(got, want any, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, encoding/json %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, encoding/json %q", gotErr, wantErr)
		}
		return ""
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("decoded %+v, encoding/json %+v", got, want)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		return fmt.Sprintf("float bits differ: %s vs %s", g, w)
	}
	return ""
}

// checkRequest decodes body as each request type both ways.
func checkRequest(t *testing.T, body []byte) {
	t.Helper()
	for _, fresh := range []func() any{
		func() any { return new(QuerySpec) },
		func() any { return new(BatchRequest) },
		func() any { return new(IngestRequest) },
	} {
		got, want := fresh(), fresh()
		gotErr := decodeRequest(body, 64<<20, got)
		wantErr := strictJSON(body, want)
		if diff := sameDecode(got, want, gotErr, wantErr); diff != "" {
			t.Fatalf("%T from %q: %s", got, body, diff)
		}
	}
}

// requestBodies are the corpus of named cases: the benchmark's shapes and
// everything the one-pass decoder must hand to encoding/json.
var requestBodies = []string{
	`{"query":[0.6046602879796196,0.9405090880450124,0.6645600532184904,0.4377141871869802],"k":10,"criterion":"eq","strategy":"bond"}`,
	`{"queries":[{"query":[0.1,0.2],"k":10,"criterion":"hq","strategy":"bond"},{"query":[0.3,0.4],"k":3}]}`,
	`{"vectors":[[0.1,0.2,0.3],[0.4,0.5,0.6],[]]}`,
	`{"vector":[1,2,3]}`,
	`{"vector":[1,2,3],"vectors":[[1,2,3]]}`,
	`{"id":42,"k":5,"order":"asc","step":4,"weights":[1,0,0.5],"dims":[0,2],"strategy":"exact","tolerance":0.01,"timeout_ms":250,"policy":"partial"}`,
	` { "query" : [ 1 , 2 ] , "k" : 1 } ` + "\n",
	`{}`, `[]`, `null`, ``, ` `, `{`, `}`, `{"k":1}{"k":2}`, `{"k":1} trailing`,
	`{"k":1,}`, `{"k":1 "step":2}`, `{"k"}`, `{"k":}`, `{,"k":1}`, `{"query":[1,]}`, `{"query":[,1]}`,
	`{"query":null,"k":1}`, `{"k":null}`, `{"id":null,"k":1}`, `{"vectors":[null,[1]]}`, `{"queries":null}`,
	`{"Query":[1],"K":2,"CRITERION":"eq"}`, `{"timeout_Ms":3,"k":1}`,
	`{"k":1,"k":2}`, `{"query":[1],"query":[2,3],"k":1}`, `{"queries":[{"k":1,"step":3}],"queries":[{"k":2}]}`,
	`{"vectors":[[1]],"vectors":[[2,3]]}`, `{"id":1,"id":2,"k":1}`,
	`{"criterion":"eq","k":1}`, `{"criterion":"\"","k":1}`, `{"strategy":"bönd","k":1}`,
	"{\"strategy\":\"b\xffnd\",\"k\":1}", `{"strategy":"bond","k":1}`, `{"policy":"<&>","k":1}`,
	`{"unknown":1,"k":1}`, `{"k":"1"}`, `{"k":1.0}`, `{"k":1e2}`, `{"k":-0}`, `{"k":01}`, `{"k":99999999999999999999}`,
	`{"k":123456789012345678}`, `{"k":-9223372036854775808}`, `{"k":9223372036854775808}`,
	`{"query":[-0],"k":1}`, `{"query":[-0.0,0e5,0E-3],"k":1}`, `{"query":[5e-324,2.2250738585072014e-308],"k":1}`,
	`{"query":[1e400],"k":1}`, `{"query":[-1e400],"k":1}`, `{"query":[1e-400],"k":1}`, `{"query":[1.7976931348623157e308],"k":1}`,
	`{"query":[0.12345678901234567],"k":1}`, `{"query":[1234567890123456789012345e-25],"k":1}`,
	`{"query":[9007199254740993],"k":1}`, `{"query":[9007199254740992e-22],"k":1}`, `{"query":[1e22,1e23,1e-22,1e-23],"k":1}`,
	`{"query":[1E+2,1e+2,1E2,1e-2],"k":1}`, `{"query":[01],"k":1}`, `{"query":[00.5],"k":1}`, `{"query":[.5],"k":1}`,
	`{"query":[1.],"k":1}`, `{"query":[1e],"k":1}`, `{"query":[1e+],"k":1}`, `{"query":[-],"k":1}`, `{"query":[+1],"k":1}`,
	`{"query":[NaN],"k":1}`, `{"query":[Infinity],"k":1}`, `{"query":[0x10],"k":1}`, `{"query":[1_000],"k":1}`,
	`{"query":[0.000000000000000000000000000001],"k":1}`, `{"query":[100000000000000000000000000000],"k":1}`,
	`{"query":[1e99999999999999999999],"k":1}`, `{"query":["1"],"k":1}`, `{"query":[true],"k":1}`,
	`{"query":{"a":1},"k":1}`, `{"tolerance":1,"k":1}`, `{"tolerance":-0,"k":1}`, `{"dims":[1.5],"k":1}`,
	"{\"k\":1}\x00", "{\"criterion\":\"e\tq\",\"k\":1}", "\t{\"k\":\r\n1}",
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range requestBodies {
		checkRequest(t, []byte(body))
	}
	// Truncation at every offset of a body that exercises every field.
	full := []byte(requestBodies[5])
	for i := range full {
		checkRequest(t, full[:i])
	}
}

// TestFastPathTakesHotBodies pins that the bodies clients actually send
// are taken by the one-pass decoder rather than the fallback: the
// equivalence tests would pass just as well if every body fell back.
func TestFastPathTakesHotBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := QuerySpec{Query: randVector(rng, 64), K: 10, Criterion: "eq", Strategy: "bond"}
	batch := BatchRequest{Queries: []QuerySpec{spec, spec}}
	ingest := IngestRequest{Vectors: [][]float64{randVector(rng, 64), randVector(rng, 64)}}
	answer := randResponse(rng)
	for _, tc := range []struct {
		v    any
		into func() any
	}{
		{&spec, func() any { return new(QuerySpec) }},
		{&batch, func() any { return new(BatchRequest) }},
		{&ingest, func() any { return new(IngestRequest) }},
		{&answer, func() any { return new(QueryResponse) }},
		{&BatchResponse{Results: []QueryResponse{answer, answer}}, func() any { return new(BatchResponse) }},
	} {
		body, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.into()
		if !decode(body, got) {
			t.Fatalf("%T: the one-pass decoder refused %s", tc.v, body)
		}
		want := tc.into()
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatal(err)
		}
		if diff := sameDecode(got, want, nil, nil); diff != "" {
			t.Fatalf("%T: %s", tc.v, diff)
		}
	}

	// Every number json.Marshal writes for a uniform float is converted
	// in the grammar pass: none of 4 096 reaches strconv.ParseFloat.
	uniform := IngestRequest{Vectors: make([][]float64, 64)}
	for i := range uniform.Vectors {
		uniform.Vectors[i] = randVector(rng, 64)
	}
	body, err := json.Marshal(&uniform)
	if err != nil {
		t.Fatal(err)
	}
	var d decoder
	d.reset(body)
	var got IngestRequest
	if ok := d.value(&got); !ok || d.slow != 0 {
		t.Fatalf("ingest of 4 096 uniform floats: taken %v, %d numbers handed to strconv.ParseFloat", ok, d.slow)
	}
}

// TestDecodeBodyOverCap pins the size cap: the stream's error reaches the
// caller as encoding/json reports it, and a value that was complete
// before the cap still decodes, as it did from the stream.
func TestDecodeBodyOverCap(t *testing.T) {
	body := []byte(`{"vector":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]}`)
	var v IngestRequest
	err := decodeRequest(body, 16, &v)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) || !strings.HasPrefix(err.Error(), "bad request body: ") {
		t.Fatalf("oversized body: err %v, want a wrapped MaxBytesError", err)
	}
	padded := append([]byte(`{"k":3}`), bytes.Repeat([]byte(" "), 64)...)
	var s QuerySpec
	if err := decodeRequest(padded, 16, &s); err != nil || s.K != 3 {
		t.Fatalf("value complete before the cap: k=%d err %v", s.K, err)
	}
}

func randVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// specialFloats are the values where encoding/json's float format
// switches or rounds.
var specialFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e-7, 9.999999999999999e-7,
	1e20, 1e21, 9.99999999999999e20, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789,
	0.1, 1.0000000000000002, 2.5e-8, 1e100, 3.4e38}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	f := rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

func randInts(rng *rand.Rand) []int {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.Intn(3))
	for i := range out {
		out[i] = rng.Intn(8)
	}
	return out
}

func randResponse(rng *rand.Rand) QueryResponse {
	r := QueryResponse{
		Stats: QueryStats{
			ValuesScanned:    rng.Int63(),
			FinalCandidates:  rng.Intn(100),
			SegmentsSearched: rng.Intn(100),
			SegmentsSkipped:  rng.Intn(100),
		},
		Truncated:    rng.Intn(3) == 0,
		Partial:      rng.Intn(3) == 0,
		MissedShards: randInts(rng),
	}
	switch n := rng.Intn(12) - 1; {
	case n < 0:
		r.Results = nil
	default:
		r.Results = make([]Neighbor, n)
		for i := range r.Results {
			r.Results[i] = Neighbor{ID: rng.Intn(1 << 20), Score: randFloat(rng)}
		}
	}
	return r
}

var randStrings = []string{"", "bond", "eq", "Hq", "partial", "exact", "a<b", "q\"uote", "é", "tab\t", "del\x7f"}

func randSpec(rng *rand.Rand) QuerySpec {
	s := QuerySpec{
		K:         rng.Intn(20),
		Criterion: randStrings[rng.Intn(len(randStrings))],
		Order:     randStrings[rng.Intn(len(randStrings))],
		Step:      rng.Intn(3),
		Dims:      randInts(rng),
		Strategy:  randStrings[rng.Intn(len(randStrings))],
		TimeoutMs: rng.Intn(3) * 100,
		Policy:    randStrings[rng.Intn(len(randStrings))],
	}
	if rng.Intn(4) > 0 {
		s.Query = make([]float64, rng.Intn(5))
		for i := range s.Query {
			s.Query[i] = randFloat(rng)
		}
	}
	if rng.Intn(3) == 0 {
		id := rng.Intn(1000) - 10
		s.ID = &id
	}
	if rng.Intn(3) == 0 {
		s.Weights = []float64{randFloat(rng), randFloat(rng)}
	}
	if rng.Intn(3) == 0 {
		s.Tolerance = randFloat(rng)
	}
	return s
}

// TestEncodeMatchesEncodingJSON holds the append encoders to
// encoding/json byte for byte, over random values of every hot type:
// Marshal against json.Marshal, WriteJSON against json.Encoder.Encode.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		batch := BatchResponse{}
		if rng.Intn(5) > 0 {
			batch.Results = make([]QueryResponse, rng.Intn(4))
			for j := range batch.Results {
				batch.Results[j] = randResponse(rng)
			}
		}
		answer := randResponse(rng)
		spec := randSpec(rng)
		specs := BatchRequest{}
		if rng.Intn(5) > 0 {
			specs.Queries = []QuerySpec{randSpec(rng), randSpec(rng)}
		}
		ingest := IngestRequest{}
		if rng.Intn(2) == 0 {
			ingest.Vector = []float64{randFloat(rng)}
		}
		if rng.Intn(2) == 0 {
			ingest.Vectors = [][]float64{nil, {}, {randFloat(rng), randFloat(rng)}}
		}
		for _, v := range []any{&answer, &batch, &spec, &specs, &ingest} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Marshal(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Marshal(%T):\n got %s (err %v)\nwant %s", v, got, err, want)
			}
			var enc bytes.Buffer
			_ = json.NewEncoder(&enc).Encode(v)
			rec := httptest.NewRecorder()
			if err := WriteJSON(rec, http.StatusOK, v); err != nil || !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
				t.Fatalf("WriteJSON(%T):\n got %s (err %v)\nwant %s", v, rec.Body.Bytes(), err, enc.Bytes())
			}
			// The answer types also round-trip through Unmarshal exactly.
			switch v.(type) {
			case *QueryResponse, *BatchResponse:
				back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
				ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
				gotErr := Unmarshal(got, back)
				if diff := sameDecode(back, ref, gotErr, json.Unmarshal(got, ref)); diff != "" {
					t.Fatalf("Unmarshal(%s): %s", got, diff)
				}
			}
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is answered 500
// with a structured error, never the intended status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, v := range []any{
		&QueryResponse{Results: []Neighbor{{ID: 0, Score: math.Inf(1)}}},
		&BatchResponse{Results: []QueryResponse{{Results: []Neighbor{{ID: 1, Score: math.NaN()}}}}},
	} {
		rec := httptest.NewRecorder()
		if err := WriteJSON(rec, http.StatusOK, v); err == nil {
			t.Fatalf("%T: WriteJSON reported no error", v)
		}
		var e Error
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
			!strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("%T: status %d body %q, want 500 with a structured error", v, rec.Code, rec.Body.Bytes())
		}
	}
}

// FuzzDecodeRequest holds DecodeBody to encoding/json on arbitrary
// bodies, as each of the three request types: whenever encoding/json
// accepts, the decoded values are equal with equal float bits; whenever
// it rejects, the error text is identical.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range requestBodies {
		f.Add([]byte(body))
	}
	full := []byte(requestBodies[5])
	for i := range full {
		f.Add(full[:i])
	}
	// The benchmark's bodies: a 64-d query, a batch and an ingest.
	rng := rand.New(rand.NewSource(1))
	spec := benchSpec(rng)
	for _, v := range []any{
		&spec,
		&BatchRequest{Queries: []QuerySpec{spec, benchSpec(rng)}},
		&IngestRequest{Vectors: [][]float64{randVector(rng, benchDims), randVector(rng, benchDims)}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequest(t, body)
	})
}
