package api

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// decoder is the one-pass reader of the hot bodies: QuerySpec,
// BatchRequest and IngestRequest on the way in, QueryResponse and
// BatchResponse on the coordinator's way back from a shard. It checks the
// JSON grammar and converts numbers in the same pass, and takes only what
// it can decode exactly as encoding/json would: exact-case keys the type
// declares, each at most once; plain-ASCII strings without escapes;
// numbers, arrays and objects of the declared types; nothing but
// whitespace after the value. Anything else — an escape, a non-ASCII byte,
// a key that matches only case-insensitively, null, a duplicate key, a
// number out of range, any syntax error — makes it give up, and the caller
// re-decodes the same bytes with encoding/json, which stays the definition
// of what is accepted and the only source of error text.
//
// Floats are bit-identical to strconv.ParseFloat's, which is what
// encoding/json calls, and each is converted in the pass that scans it.
// Most numbers have the short form json.Marshal writes for a float64
// below 10 — 0.6046602879796196: a sign, one integer digit, up to 17
// fraction digits, no exponent (shortFloat). A float array's elements are
// read by shortRun, one loop over a local cursor that takes short numbers
// and the bare commas between them, checking and converting each
// fraction's first 16 digits in one step, with no per-number whitespace
// test or d.pos round trip (on amd64 it is SSE2 assembly with a Go
// twin). A short mantissa is below 10¹⁹, and its exponent small: below
// 2⁵³ it and 10^−e are exact, and one correctly rounded division is the
// answer (Clinger's fast path); above, Eisel–Lemire (atof.go) rounds it
// against a 128-bit power of ten. Any other number, and a short one
// Eisel–Lemire declines, takes the general path (anyFloat): the grammar pass
// gathers up to 19 significant digits into a mantissa, eight fraction
// digits at a time (eightDigits), and a decimal exponent; Clinger and
// Eisel–Lemire convert it as above, and a mantissa cut at 19 digits is
// taken only when it and its successor round alike. What those decline —
// near-halfway values, subnormals, overflow, |e| > 347 — goes to
// strconv.ParseFloat on the span the grammar pass has delimited, so a
// number is refused exactly when encoding/json refuses it.
//
// A decoder is pooled with its scratch: every float array is read into
// nums and copied out into a slice allocated once at its final length
// (an ingest's vectors share one), and a batch's specs are gathered in
// specs before their slice is made.
type decoder struct {
	data    []byte
	pos     int
	slow    int               // numbers handed to strconv.ParseFloat, for tests
	general int               // numbers shortFloat left to anyFloat, for tests
	tail    [shortWindow]byte // the last bytes of the body, padded

	nums  []float64   // floats of the array(s) being read
	ints  []int       // ints of the array being read
	ends  []int       // end offsets into nums, one per vector of an ingest
	specs []QuerySpec // specs of the batch being read
	resps []QueryResponse
	hits  []Neighbor
}

// reset points the decoder at data, keeping its scratch.
func (d *decoder) reset(data []byte) {
	d.data, d.pos, d.slow, d.general = data, 0, 0, 0
}

// release drops what the scratch still references, so a pooled decoder
// pins neither the body nor a decoded slice.
func (d *decoder) release() {
	d.data = nil
	clear(d.specs)
	clear(d.resps)
	d.specs, d.resps = d.specs[:0], d.resps[:0]
}

// value decodes the whole body into v, a pointer to one of the hot types,
// assigning *v only when every byte was taken. Like encoding/json it sets
// only the fields present. It takes only targets whose slices and
// pointers are nil, as every caller's are: encoding/json decodes into
// whatever those already reference, which this decoder does not mimic.
func (d *decoder) value(v any) bool {
	switch v := v.(type) {
	case *QuerySpec:
		s := *v
		if s.Query == nil && s.ID == nil && s.Weights == nil && s.Dims == nil &&
			d.querySpec(&s) && d.end() {
			*v = s
			return true
		}
	case *BatchRequest:
		r := *v
		if r.Queries == nil && d.batchRequest(&r) && d.end() {
			*v = r
			return true
		}
	case *IngestRequest:
		r := *v
		if r.Vector == nil && r.Vectors == nil && d.ingestRequest(&r) && d.end() {
			*v = r
			return true
		}
	case *QueryResponse:
		r := *v
		if r.Results == nil && r.MissedShards == nil && d.queryResponse(&r) && d.end() {
			*v = r
			return true
		}
	case *BatchResponse:
		r := *v
		if r.Results == nil && d.batchResponse(&r) && d.end() {
			*v = r
			return true
		}
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it is the next byte.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key reads an object key and its colon. The key aliases the body.
func (d *decoder) key() ([]byte, bool) {
	s, ok := d.plain()
	if !ok || !d.next(':') {
		return nil, false
	}
	return s, true
}

// plain reads a string of printable ASCII without escapes — the only
// strings whose bytes are their value — and returns it aliasing the body.
func (d *decoder) plain() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	start := d.pos
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// str reads a plain string value. The names the API defines come back
// as the constants in apiNames, so a common request allocates no string.
func (d *decoder) str() (string, bool) {
	b, ok := d.plain()
	if !ok {
		return "", false
	}
	if s, ok := apiNames[string(b)]; ok {
		return s, true
	}
	return string(b), true
}

var apiNames = map[string]string{}

func init() {
	for _, s := range []string{"", "auto", "bond", "exact", "compressed", "vafile",
		"hq", "hh", "eq", "ev", "Hq", "Hh", "Eq", "Ev", "desc", "asc", "strict", "partial"} {
		apiNames[s] = s
	}
}

// boolean reads true or false.
func (d *decoder) boolean() (bool, bool) {
	d.ws()
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false, true
	}
	return false, false
}

// int64 reads a JSON integer that fits an int64. A fraction or an
// exponent is refused: encoding/json rejects both for an integer field.
func (d *decoder) int64() (int64, bool) {
	d.ws()
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		n = n*10 + uint64(data[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 19 || (digits > 1 && data[start] == '0') {
		return 0, false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, false
	}
	if n > math.MaxInt64 && !(neg && n == 1<<63) {
		return 0, false
	}
	d.pos = i
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// int reads a JSON integer that fits an int.
func (d *decoder) int() (int, bool) {
	n, ok := d.int64()
	if !ok || int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float reads a JSON number: the short form in one step (shortFloat),
// anything else on the general path (anyFloat).
func (d *decoder) float() (float64, bool) {
	d.ws()
	if f, n, ok := shortFloat(d.window()); ok {
		d.pos += n
		return f, true
	}
	d.general++
	return d.anyFloat()
}

// window returns the shortWindow bytes from d.pos on, padded with zero
// bytes past the end of the body, which end a number like any other byte
// that cannot continue one.
func (d *decoder) window() *[shortWindow]byte {
	if len(d.data)-d.pos >= shortWindow {
		return (*[shortWindow]byte)(d.data[d.pos:])
	}
	d.tail = [shortWindow]byte{}
	copy(d.tail[:], d.data[d.pos:])
	return &d.tail
}

// runChunk bounds the numbers one shortRun call converts, ≈ 20 µs.
const runChunk = 4096

// shortWindow is how many bytes shortFloat may look at: the longest short
// number and the byte after it fit.
const shortWindow = 32

// shortFloat reads the number at the start of w when it has the short
// form, which covers what json.Marshal writes for a float64 from 1e-6 to
// 10 — an optional minus, one integer digit, then optionally a point, up
// to seven zeros when the integer digit is 0, and at most 17 more digits;
// no exponent; then a byte that cannot continue a number — and returns
// its value and length. The fraction's first 16 bytes are tested and
// converted as two words without a loop: the digits of a run shorter
// than 16 are kept and the bytes after it count as zeros, which scales
// the mantissa and its exponent alike. Clinger's fast path converts a
// mantissa below 2⁵³ (one correctly rounded division), eiselLemire one
// above; each returns only the correctly rounded value, as
// strconv.ParseFloat does, so what shortFloat returns is what anyFloat
// would. ok false leaves the number, unread, to anyFloat.
func shortFloat(w *[shortWindow]byte) (f float64, n int, ok bool) {
	i := 0
	neg := w[0] == '-'
	if neg {
		i = 1
	}
	man := uint64(w[i] - '0')
	if man > 9 {
		return 0, 0, false
	}
	i++
	exp := 0 // decimal exponent of man's last digit
	if w[i] == '.' {
		i++
		z := 0
		if man == 0 {
			// Leading zeros place the digits, they are not among them.
			if z = bits.TrailingZeros64(binary.LittleEndian.Uint64(w[i:])^zeros) >> 3; z == 8 {
				return 0, 0, false
			}
			i += z
		}
		lo, hi := binary.LittleEndian.Uint64(w[i:]), binary.LittleEndian.Uint64(w[i+8:])
		ml, mh := digitMask(lo), digitMask(hi)
		lo, hi = lo-zeros, hi-zeros
		k := 16 // digits in the run
		if ml|mh != 0 {
			n0 := bits.TrailingZeros64(ml) >> 3
			n1 := bits.TrailingZeros64(mh) >> 3 & -(n0 >> 3)
			if k = n0 + n1; k+z == 0 {
				return 0, 0, false
			}
			lo, hi = lo&keepBytes[n0], hi&keepBytes[n1]
		}
		man = man*1e16 + digits8(lo)*1e8 + digits8(hi)
		exp = -z - 16
		i += k
		if c := uint64(w[i] - '0'); k == 16 && c <= 9 {
			if w[i+1]-'0' <= 9 {
				return 0, 0, false
			}
			man = man*10 + c
			exp--
			i++
		}
	}
	if c := w[i]; c-'0' <= 9 || c == '.' || c == 'e' || c == 'E' {
		return 0, 0, false
	}
	if man < 1<<53 && exp >= -22 {
		// Clinger: one correctly rounded operation on two exact operands.
		f = float64(man) / pow10[-exp]
		if neg {
			f = -f
		}
		return f, i, true
	}
	if f, ok = eiselLemire(man, exp, neg); !ok {
		return 0, 0, false
	}
	return f, i, true
}

// shortRunGo is shortRun in Go, and the definition of what the assembly
// version returns: it converts into out the short numbers from data[i:]
// on, one after each comma, while out has room and a whole window lies
// ahead in data. It returns how many it converted and the offset after
// the last one (i when none).
func shortRunGo(data []byte, i int, out []float64) (n, end int) {
	end = i
	for n < len(out) && len(data)-i >= shortWindow {
		f, k, ok := shortFloat((*[shortWindow]byte)(data[i:]))
		if !ok {
			break
		}
		out[n] = f
		n++
		end = i + k
		if data[end] != ',' {
			break
		}
		i = end + 1
	}
	return n, end
}

// anyFloat reads a JSON number at d.pos, checking its grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) while accumulating up
// to 19 significant digits in man, and converts it as strconv.ParseFloat
// does: Clinger's fast path, then Eisel–Lemire, then — for what those two
// decline — strconv.ParseFloat itself on the delimited span.
func (d *decoder) anyFloat() (float64, bool) {
	data, i := d.data, d.pos
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // significant digits in man; decimal exponent of its last digit
	trunc := false  // a non-zero digit did not fit in man
	// Integer part: 0, or a non-zero digit and more digits.
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(data[i]-'0')
				nd++
			} else {
				exp++ // the dropped digit still scales the ones kept
				trunc = trunc || data[i] != '0'
			}
		}
	default:
		return 0, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		frac := i
		if man == 0 {
			for ; i < len(data) && data[i] == '0'; i++ {
				exp-- // a leading zero places the digits, it is not one of them
			}
		}
		// Eight digits at a time while they fit in man, then one by one.
		for nd <= 19-8 && len(data)-i >= 8 {
			v, ok := eightDigits(data[i:])
			if !ok {
				break
			}
			man = man*1e8 + v
			nd += 8
			exp -= 8
			i += 8
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(data[i]-'0')
				nd++
				exp--
			} else {
				trunc = trunc || data[i] != '0'
			}
		}
		if i == frac {
			return 0, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		digits := i
		e := 0
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == digits {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.pos = i
	if !trunc && man < 1<<53 && -22 <= exp && exp <= 22 {
		// Clinger: one correctly rounded operation on two exact operands.
		f := float64(man)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	if f, ok := eiselLemire(man, exp, neg); ok {
		// A truncated mantissa lies between man and man+1: it is taken
		// only when both round to the same float.
		if !trunc {
			return f, true
		}
		if up, ok := eiselLemire(man+1, exp, neg); ok && up == f {
			return f, true
		}
	}
	d.slow++
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	return f, err == nil
}

// appendFloats reads an array of numbers onto d.nums. shortRun takes the
// elements in one loop for as long as they are short numbers separated
// by bare commas; an element it leaves goes through float, and whitespace
// around a comma through next, before the run resumes.
func (d *decoder) appendFloats() bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	data, i, nums := d.data, d.pos, d.nums
	for {
		if len(nums) == cap(nums) {
			nums = append(nums, 0)[:len(nums)]
		}
		// At most runChunk numbers a call: the assembly cannot be
		// preempted, and a huge array must not hold up a GC stop.
		room := nums[len(nums):min(cap(nums), len(nums)+runChunk)]
		if n, end := shortRun(data, i, room); n > 0 {
			nums, i = nums[:len(nums)+n], end
		} else {
			d.pos = i
			f, ok := d.float()
			if !ok {
				d.nums = nums
				return false
			}
			nums, i = append(nums, f), d.pos
		}
		if i < len(data) && data[i] == ',' {
			i++
			continue
		}
		d.pos, d.nums = i, nums
		if !d.next(',') {
			return d.next(']')
		}
		i = d.pos
	}
}

// floats reads an array of numbers into a slice of its exact length
// (non-nil when empty, as encoding/json makes it).
func (d *decoder) floats() ([]float64, bool) {
	d.nums = d.nums[:0]
	if !d.appendFloats() {
		return nil, false
	}
	out := make([]float64, len(d.nums))
	copy(out, d.nums)
	return out, true
}

// vectors reads an array of float arrays in two allocations: the outer
// slice, and one backing array the vectors are cut from, each with
// cap == len so that appending to one cannot overwrite the next.
func (d *decoder) vectors() ([][]float64, bool) {
	d.nums, d.ends = d.nums[:0], d.ends[:0]
	ok := d.elements(func() bool {
		ok := d.appendFloats()
		d.ends = append(d.ends, len(d.nums))
		return ok
	})
	if !ok {
		return nil, false
	}
	out := make([][]float64, len(d.ends))
	all := append(make([]float64, 0, len(d.nums)), d.nums...)
	at := 0
	for i, end := range d.ends {
		out[i] = all[at:end:end]
		at = end
	}
	return out, true
}

// intSlice reads an array of integers into a slice of its exact length.
func (d *decoder) intSlice() ([]int, bool) {
	d.ints = d.ints[:0]
	ok := d.elements(func() bool {
		n, ok := d.int()
		d.ints = append(d.ints, n)
		return ok
	})
	if !ok {
		return nil, false
	}
	out := make([]int, len(d.ints))
	copy(out, d.ints)
	return out, true
}

// elements reads an array, calling elem to read each element.
func (d *decoder) elements(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.next(',') {
			return d.next(']')
		}
	}
}

// members reads an object, calling field to read each member's value
// into place. field returns the key's bit, or false for a key the type
// does not declare exactly. A repeated key is refused: encoding/json
// merges it into the value already decoded, which this decoder does not
// reproduce.
func (d *decoder) members(field func(key []byte) (bit uint32, ok bool)) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// querySpec reads one QuerySpec object into s.
func (d *decoder) querySpec(s *QuerySpec) bool {
	return d.members(func(key []byte) (uint32, bool) {
		var ok bool
		switch string(key) {
		case "query":
			s.Query, ok = d.floats()
			return 1 << 0, ok
		case "id":
			var id int
			id, ok = d.int()
			s.ID = &id
			return 1 << 1, ok
		case "k":
			s.K, ok = d.int()
			return 1 << 2, ok
		case "criterion":
			s.Criterion, ok = d.str()
			return 1 << 3, ok
		case "order":
			s.Order, ok = d.str()
			return 1 << 4, ok
		case "step":
			s.Step, ok = d.int()
			return 1 << 5, ok
		case "weights":
			s.Weights, ok = d.floats()
			return 1 << 6, ok
		case "dims":
			s.Dims, ok = d.intSlice()
			return 1 << 7, ok
		case "strategy":
			s.Strategy, ok = d.str()
			return 1 << 8, ok
		case "tolerance":
			s.Tolerance, ok = d.float()
			return 1 << 9, ok
		case "timeout_ms":
			s.TimeoutMs, ok = d.int()
			return 1 << 10, ok
		case "policy":
			s.Policy, ok = d.str()
			return 1 << 11, ok
		}
		return 0, false
	})
}

// batchRequest reads a BatchRequest object into r; its specs are gathered
// in d.specs and copied into a slice of their exact count.
func (d *decoder) batchRequest(r *BatchRequest) bool {
	return d.members(func(key []byte) (uint32, bool) {
		if string(key) != "queries" {
			return 0, false
		}
		d.specs = d.specs[:0]
		ok := d.elements(func() bool {
			d.specs = append(d.specs, QuerySpec{})
			return d.querySpec(&d.specs[len(d.specs)-1])
		})
		r.Queries = make([]QuerySpec, len(d.specs))
		copy(r.Queries, d.specs)
		return 1, ok
	})
}

// ingestRequest reads an IngestRequest object into r.
func (d *decoder) ingestRequest(r *IngestRequest) bool {
	return d.members(func(key []byte) (uint32, bool) {
		var ok bool
		switch string(key) {
		case "vector":
			r.Vector, ok = d.floats()
			return 1 << 0, ok
		case "vectors":
			r.Vectors, ok = d.vectors()
			return 1 << 1, ok
		}
		return 0, false
	})
}

// queryResponse reads a QueryResponse object into r.
func (d *decoder) queryResponse(r *QueryResponse) bool {
	return d.members(func(key []byte) (uint32, bool) {
		var ok bool
		switch string(key) {
		case "results":
			r.Results, ok = d.neighbors()
			return 1 << 0, ok
		case "stats":
			return 1 << 1, d.queryStats(&r.Stats)
		case "truncated":
			r.Truncated, ok = d.boolean()
			return 1 << 2, ok
		case "partial":
			r.Partial, ok = d.boolean()
			return 1 << 3, ok
		case "missed_shards":
			r.MissedShards, ok = d.intSlice()
			return 1 << 4, ok
		}
		return 0, false
	})
}

// neighbors reads an array of Neighbor objects into a slice of its exact
// length.
func (d *decoder) neighbors() ([]Neighbor, bool) {
	d.hits = d.hits[:0]
	ok := d.elements(func() bool {
		d.hits = append(d.hits, Neighbor{})
		n := &d.hits[len(d.hits)-1]
		return d.members(func(key []byte) (uint32, bool) {
			var ok bool
			switch string(key) {
			case "id":
				n.ID, ok = d.int()
				return 1 << 0, ok
			case "score":
				n.Score, ok = d.float()
				return 1 << 1, ok
			}
			return 0, false
		})
	})
	if !ok {
		return nil, false
	}
	out := make([]Neighbor, len(d.hits))
	copy(out, d.hits)
	return out, true
}

func (d *decoder) queryStats(s *QueryStats) bool {
	return d.members(func(key []byte) (uint32, bool) {
		var ok bool
		switch string(key) {
		case "values_scanned":
			s.ValuesScanned, ok = d.int64()
			return 1 << 0, ok
		case "final_candidates":
			s.FinalCandidates, ok = d.int()
			return 1 << 1, ok
		case "segments_searched":
			s.SegmentsSearched, ok = d.int()
			return 1 << 2, ok
		case "segments_skipped":
			s.SegmentsSkipped, ok = d.int()
			return 1 << 3, ok
		}
		return 0, false
	})
}

// batchResponse reads a BatchResponse object into r.
func (d *decoder) batchResponse(r *BatchResponse) bool {
	return d.members(func(key []byte) (uint32, bool) {
		if string(key) != "results" {
			return 0, false
		}
		d.resps = d.resps[:0]
		ok := d.elements(func() bool {
			d.resps = append(d.resps, QueryResponse{})
			return d.queryResponse(&d.resps[len(d.resps)-1])
		})
		r.Results = make([]QueryResponse, len(d.resps))
		copy(r.Results, d.resps)
		return 1, ok
	})
}
