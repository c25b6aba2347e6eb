package api

import (
	"math"
	"strconv"
)

// The append encoders write the hot bodies byte for byte as
// encoding/json.Marshal does — field order, omitempty, null for a nil
// slice and [] for an empty one, floats in 'f' form inside [1e-6, 1e21)
// and 'e' form outside it with the exponent's leading zero dropped — but
// without reflection and into the caller's buffer. Each reports false on
// anything it does not write exactly (a NaN or an infinity, a string
// needing an escape); the caller then hands the whole value to
// encoding/json, which either writes it or names the error.

func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

func appendFloats(b []byte, xs []float64) ([]byte, bool) {
	if xs == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloat(b, x); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendInts writes a non-empty int slice (every int slice of the hot
// types is omitempty).
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendString writes s quoted when it needs no escape under
// encoding/json's HTML-safe rules: printable ASCII other than " \ < > &.
func appendString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, bool) {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, n := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(n.ID), 10)
			b = append(b, `,"score":`...)
			var ok bool
			if b, ok = appendFloat(b, n.Score); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"stats":{"values_scanned":`...)
	b = strconv.AppendInt(b, r.Stats.ValuesScanned, 10)
	b = append(b, `,"final_candidates":`...)
	b = strconv.AppendInt(b, int64(r.Stats.FinalCandidates), 10)
	b = append(b, `,"segments_searched":`...)
	b = strconv.AppendInt(b, int64(r.Stats.SegmentsSearched), 10)
	b = append(b, `,"segments_skipped":`...)
	b = strconv.AppendInt(b, int64(r.Stats.SegmentsSkipped), 10)
	b = append(b, '}')
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(r.MissedShards) > 0 {
		b = append(b, `,"missed_shards":`...)
		b = appendInts(b, r.MissedShards)
	}
	return append(b, '}'), true
}

func appendBatchResponse(b []byte, r *BatchResponse) ([]byte, bool) {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendQueryResponse(b, &r.Results[i]); !ok {
			return b, false
		}
	}
	return append(b, "]}"...), true
}

func appendQuerySpec(b []byte, s *QuerySpec) ([]byte, bool) {
	ok := true
	b = append(b, '{')
	if len(s.Query) > 0 {
		b = append(b, `"query":`...)
		if b, ok = appendFloats(b, s.Query); !ok {
			return b, false
		}
		b = append(b, ',')
	}
	if s.ID != nil {
		b = append(b, `"id":`...)
		b = strconv.AppendInt(b, int64(*s.ID), 10)
		b = append(b, ',')
	}
	b = append(b, `"k":`...)
	b = strconv.AppendInt(b, int64(s.K), 10)
	if b, ok = appendStringField(b, `,"criterion":`, s.Criterion); !ok {
		return b, false
	}
	if b, ok = appendStringField(b, `,"order":`, s.Order); !ok {
		return b, false
	}
	b = appendIntField(b, `,"step":`, s.Step)
	if len(s.Weights) > 0 {
		b = append(b, `,"weights":`...)
		if b, ok = appendFloats(b, s.Weights); !ok {
			return b, false
		}
	}
	if len(s.Dims) > 0 {
		b = append(b, `,"dims":`...)
		b = appendInts(b, s.Dims)
	}
	if b, ok = appendStringField(b, `,"strategy":`, s.Strategy); !ok {
		return b, false
	}
	if s.Tolerance != 0 {
		b = append(b, `,"tolerance":`...)
		if b, ok = appendFloat(b, s.Tolerance); !ok {
			return b, false
		}
	}
	b = appendIntField(b, `,"timeout_ms":`, s.TimeoutMs)
	if b, ok = appendStringField(b, `,"policy":`, s.Policy); !ok {
		return b, false
	}
	return append(b, '}'), true
}

// appendIntField writes an omitempty int field.
func appendIntField(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendStringField writes an omitempty string field.
func appendStringField(b []byte, key, v string) ([]byte, bool) {
	if v == "" {
		return b, true
	}
	b = append(b, key...)
	return appendString(b, v)
}

func appendBatchRequest(b []byte, r *BatchRequest) ([]byte, bool) {
	b = append(b, `{"queries":`...)
	if r.Queries == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range r.Queries {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendQuerySpec(b, &r.Queries[i]); !ok {
			return b, false
		}
	}
	return append(b, "]}"...), true
}
