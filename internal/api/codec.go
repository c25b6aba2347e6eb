package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// The wire codec. Every JSON request and answer body, on the client →
// server hop and on the coordinator → shard hop, goes through four
// functions: DecodeBody and WriteJSON for a handler, Marshal and Unmarshal
// for the coordinator's side of a shard call. For the hot types —
// QuerySpec, BatchRequest, IngestRequest on the way in, QueryResponse and
// BatchResponse — they run the one-pass decoder (decode.go) and the append
// encoders (encode.go); for anything those do not take exactly, and for
// every other type, they run encoding/json on the same bytes.
// encoding/json therefore still defines which bodies are accepted, every
// error text, and every byte written: the fast paths only ever produce
// what it would. The one body that is not JSON is the coordinator's ingest
// to a shard, which carries its vectors as raw float64 frames (frames.go).

// Body is a pooled byte buffer a body is read into or an answer appended
// to. Release returns it to the pool; the bytes must not be used after.
type Body struct{ B []byte }

var bodies = sync.Pool{New: func() any { return new(Body) }}

// maxPooledBody is the largest buffer Release keeps: a 256-vector set-up
// ingest (≈ 330 KB) is reused, a rare multi-megabyte body is left to the
// collector. sync.Pool itself is emptied by garbage collection, so no
// buffer outlives a quiet period.
const maxPooledBody = 1 << 20

// maxSizeHint caps what a declared length may preallocate, so a lying
// Content-Length cannot reserve memory the body never fills.
const maxSizeHint = 4 << 20

// ReadBody reads r to EOF into a pooled buffer; a positive hint (the
// declared length) sizes it up front. On a read error the bytes read so
// far are returned with it.
func ReadBody(r io.Reader, hint int64) (*Body, error) {
	body := bodies.Get().(*Body)
	b := body.B[:0]
	if hint > 0 && hint <= maxSizeHint && int(hint)+bytes.MinRead > cap(b) {
		b = make([]byte, 0, int(hint)+bytes.MinRead)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			body.B = b
			if err == io.EOF {
				err = nil
			}
			return body, err
		}
	}
}

// Release returns the buffer to the pool.
func (b *Body) Release() {
	if cap(b.B) > maxPooledBody {
		b.B = nil
	}
	bodies.Put(b)
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decode runs the one-pass decoder over data into v when v is one of the
// hot types, and reports whether it took the whole body.
func decode(data []byte, v any) bool {
	d := decoders.Get().(*decoder)
	d.reset(data)
	ok := d.value(v)
	d.release()
	decoders.Put(d)
	return ok
}

// DecodeBody decodes a JSON request body into v, rejecting unknown fields
// and bodies over maxBytes (http.MaxBytesReader also hints the connection
// closed so the client stops streaming). The outcome is exactly that of a
// json.Decoder with DisallowUnknownFields over the body stream; errors
// read "bad request body: …".
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	body, rerr := ReadBody(http.MaxBytesReader(w, r.Body, maxBytes), min(r.ContentLength, maxBytes))
	defer body.Release()
	if rerr == nil && decode(body.B, v) {
		return nil
	}
	// The decoder sees the bytes the stream delivered, then the stream's
	// error: a value complete before an oversized tail still decodes, as
	// it would have from the stream.
	var replay io.Reader = bytes.NewReader(body.B)
	if rerr != nil {
		replay = io.MultiReader(replay, errReader{rerr})
	}
	dec := json.NewDecoder(replay)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Unmarshal is json.Unmarshal, through the one-pass decoder for the hot
// types.
func Unmarshal(data []byte, v any) error {
	if decode(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// appendJSON appends json.Marshal's encoding of v to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	var out []byte
	ok := false
	switch v := v.(type) {
	case *QueryResponse:
		out, ok = appendQueryResponse(b, v)
	case *BatchResponse:
		out, ok = appendBatchResponse(b, v)
	case *QuerySpec:
		out, ok = appendQuerySpec(b, v)
	case *BatchRequest:
		out, ok = appendBatchRequest(b, v)
	}
	if ok {
		return out, nil
	}
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, j...), nil
}

// Marshal is json.Marshal, through the append encoders for pointers to
// the hot types.
func Marshal(v any) ([]byte, error) {
	body := bodies.Get().(*Body)
	defer body.Release()
	var err error
	body.B, err = appendJSON(body.B[:0], v)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(body.B), nil
}

// WriteJSON answers status with v encoded as json.Encoder.Encode writes
// it. The body is encoded before the status is sent, so a value that
// cannot be encoded (a non-finite score) is answered 500 with a
// structured Error instead of a success status with an empty body; the
// encoding error is returned for the caller to log.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	body := bodies.Get().(*Body)
	defer body.Release()
	b, err := appendJSON(body.B[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendJSON(b[:0], Error{Error: "encode response: " + err.Error()})
	}
	body.B = append(b, '\n')
	w.Header().Set("Content-Type", JSONType)
	w.WriteHeader(status)
	_, _ = w.Write(body.B)
	return err
}
