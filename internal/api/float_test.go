package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bond/internal/dataset"
)

// floatNumber is the JSON number grammar; the decoder's float reads the
// longest prefix matching it.
var floatNumber = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// checkFloat holds the decoder's float to strconv.ParseFloat on body (a
// number and what follows it): the same accept or reject, the same bits,
// and exactly the number's bytes consumed. The number is then read as an
// array element, alone and twice, and held to the same: the array reader
// (shortRun and what it leaves to float) takes it exactly when strconv
// does, with its bits, and consumes the whole array. It reports the
// difference, or "" when there is none.
func checkFloat(body []byte) string {
	var d decoder
	d.reset(body)
	got, ok := d.float()

	// The reference: the grammar's longest prefix after whitespace, refused
	// if a fraction or exponent is left dangling, converted by strconv.
	at := 0
	for at < len(body) && (body[at] == ' ' || body[at] == '\t' || body[at] == '\n' || body[at] == '\r') {
		at++
	}
	m := floatNumber.FindSubmatchIndex(body[at:])
	wantOK := m != nil
	var want float64
	var number []byte // the number, when the grammar took it whole
	if wantOK {
		end := at + m[1]
		frac, exp := m[2] >= 0, m[4] >= 0
		if end < len(body) && (body[end] == '.' && !frac && !exp || (body[end] == 'e' || body[end] == 'E') && !exp) {
			wantOK = false
		} else {
			var err error
			want, err = strconv.ParseFloat(string(body[at:end]), 64)
			wantOK = err == nil
			number = body[at:end]
		}
		if ok && wantOK && d.pos != end {
			return fmt.Sprintf("%q: consumed %d bytes, want %d", body, d.pos, end)
		}
	}
	switch {
	case ok != wantOK:
		return fmt.Sprintf("%q: accepted %v, strconv %v", body, ok, wantOK)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		return fmt.Sprintf("%q: %v (%#x), strconv %v (%#x)", body, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if number == nil {
		return ""
	}
	for i, arr := range [][]byte{arrayOf(number), arrayOf(number, number)} {
		var d decoder
		d.reset(arr)
		ok := d.appendFloats() && d.end()
		switch {
		case ok != wantOK:
			return fmt.Sprintf("%q: accepted %v, strconv %v", arr, ok, wantOK)
		case ok && len(d.nums) != i+1:
			return fmt.Sprintf("%q: %d numbers, want %d", arr, len(d.nums), i+1)
		}
		for _, f := range d.nums {
			if ok && math.Float64bits(f) != math.Float64bits(want) {
				return fmt.Sprintf("%q: %v (%#x), strconv %v (%#x)", arr, f, math.Float64bits(f), want, math.Float64bits(want))
			}
		}
	}
	return ""
}

// arrayOf returns the JSON array whose elements are xs.
func arrayOf(xs ...[]byte) []byte {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, x...)
	}
	return append(b, ']')
}

// checkFloatArray holds the decoder's array reader — shortRun and what
// it leaves to float — to encoding/json on arr: an array it takes,
// encoding/json takes too, with the same bits, and it consumes every
// byte; an array it refuses, encoding/json refuses too, unless it holds a
// null (which encoding/json reads as a zero and this decoder leaves to
// it).
func checkFloatArray(arr []byte) string {
	var d decoder
	d.reset(arr)
	ok := d.appendFloats() && d.end()
	var want []float64
	wantOK := json.Unmarshal(arr, &want) == nil
	switch {
	case ok && !wantOK:
		return fmt.Sprintf("%q: taken, encoding/json refuses it", arr)
	case !ok && wantOK && !bytes.Contains(arr, []byte("null")):
		return fmt.Sprintf("%q: refused, encoding/json takes it", arr)
	case ok && len(d.nums) != len(want):
		return fmt.Sprintf("%q: %d numbers, encoding/json %d", arr, len(d.nums), len(want))
	}
	if ok {
		for i, f := range d.nums {
			if math.Float64bits(f) != math.Float64bits(want[i]) {
				return fmt.Sprintf("%q: element %d is %v (%#x), encoding/json %v (%#x)",
					arr, i, f, math.Float64bits(f), want[i], math.Float64bits(want[i]))
			}
		}
	}
	return ""
}

// halfways returns decimal strings at and around the midpoint between x
// and the next float up: exact, rounded to 20–60 digits (either side of
// the midpoint, so a mantissa cut at 19 digits no longer decides the
// rounding), and a ten-billionth of an ulp either side of it.
func halfways(x float64) []string {
	next := math.Nextafter(x, math.Inf(1))
	if math.IsInf(next, 0) {
		return nil
	}
	mid := new(big.Float).SetPrec(2000).SetFloat64(x)
	mid.Add(mid, new(big.Float).SetFloat64(next)).Quo(mid, big.NewFloat(2))
	out := []string{mid.Text('e', 800)} // every digit: at most 767 are not zero
	for _, digits := range []int{20, 21, 25, 30, 40, 60} {
		out = append(out, mid.Text('e', digits-1))
	}
	ulp := new(big.Float).SetPrec(2000).SetFloat64(next - x)
	nudge := new(big.Float).SetPrec(2000).Quo(ulp, big.NewFloat(1e10))
	for _, sign := range []float64{1, -1} {
		v := new(big.Float).SetPrec(2000).Mul(nudge, big.NewFloat(sign))
		out = append(out, v.Add(v, mid).Text('e', 39))
	}
	return out
}

// floatCorpus calls add on over a million numbers (a 1/sample share of
// the generated ones): what json.Marshal writes for uniform,
// histogram-like and random-bit floats; 'e' and 'f' forms at precisions
// 0–30, long integer parts included; midpoints between adjacent floats;
// subnormals, zeros, overflow and 1e±400.
func floatCorpus(sample int, add func(string)) {
	rng := rand.New(rand.NewSource(32))
	marshal := func(f float64) {
		b, err := json.Marshal(f)
		if err != nil {
			panic(err)
		}
		add(string(b))
	}
	randBits := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 300000/sample; i++ {
		marshal(rng.Float64())
	}
	for _, h := range dataset.CorelLike(2000/sample, 64, 32) {
		for _, f := range h {
			marshal(f)
			marshal(f / 1000) // below 1e-6 json.Marshal switches to 'e'
		}
	}
	for i := 0; i < 150000/sample; i++ {
		marshal(randBits())
	}
	for i := 0; i < 6000/sample; i++ {
		f := rng.Float64() * math.Pow(10, float64(rng.Intn(80)-40))
		if i%2 == 1 {
			f = randBits()
		}
		for prec := 0; prec <= 30; prec++ {
			add(strconv.FormatFloat(f, 'e', prec, 64))
			if math.Abs(f) < 1e40 {
				add(strconv.FormatFloat(f, 'f', prec, 64)) // up to 41 integer digits
			}
		}
	}
	for i := 0; i < 4000/sample; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = rng.Float64()
		case 1:
			x = randBits()
		case 2: // integers past 2⁵³, where the midpoints are integers too
			x = float64(uint64(1)<<53 + uint64(rng.Int63n(1<<40))*2)
		default: // around the subnormal and overflow boundaries
			x = math.Float64frombits(uint64(rng.Int63n(1 << 54)))
			if rng.Intn(2) == 0 {
				x = math.Float64frombits(math.Float64bits(math.MaxFloat64) - uint64(rng.Int63n(1<<20)))
			}
		}
		for _, s := range halfways(math.Abs(x)) {
			add(s)
			add("-" + s)
		}
	}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-0", "0e400", "0.000e-400", "0e99999999999999999999",
		"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1.8e308",
		"1e308", "1e309", "-1e309", "1e400", "-1e400", "1e-400", "-1e-400", "1e-350", "1e-348", "1e347", "1e-347",
		"9007199254740993", "9007199254740993.0000000000000001", "18446744073709551615", "18446744073709551616",
		"1e22", "1e23", "8.98846567431158e307", "123456789012345678901234567890", "0.1e-0000000000000000000001",
		"10000000000000000000000000000000000000000e-40", "1.00000000000000000000000000000000000001",
		"0.000000000000000000000000000000000000000000000001234567890123456789012",
	} {
		add(s)
		add("-" + s)
	}
}

// TestDecodeFloatMatchesStrconv is the differential test of the number
// parser: over a million numbers, each followed by a separator, the
// decoder's float takes exactly strconv.ParseFloat's bits, refuses exactly
// what it refuses, and consumes exactly the number. A -race build checks
// a sixteenth of the corpus.
func TestDecodeFloatMatchesStrconv(t *testing.T) {
	sample := 1
	if raceEnabled {
		sample = 16
	}
	n, fails := 0, 0
	floatCorpus(sample, func(s string) {
		n++
		if diff := checkFloat([]byte(s + ",")); diff != "" {
			if fails++; fails <= 10 {
				t.Error(diff)
			}
		}
	})
	if n*sample < 1000000 {
		t.Fatalf("corpus has %d numbers, want at least a million", n)
	}
	if fails > 0 {
		t.Fatalf("%d of %d numbers differ from strconv", fails, n)
	}
	t.Logf("%d numbers, all as strconv.ParseFloat reads them", n)
}

// FuzzDecodeFloat holds the decoder's float to strconv.ParseFloat on
// arbitrary bytes: accept or reject, bits, and bytes consumed; and the
// array reader to encoding/json on the bytes as an array element, alone
// and twice.
func FuzzDecodeFloat(f *testing.F) {
	for _, s := range []string{"0.6046602879796196", "-1.2e-7", "1e400", "123456789012345678901234.5",
		"2.4703282292062327e-324", "9007199254740993", "0.1.", "1.e5", "1e", "01", "-", " 7]"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if diff := checkFloat(body); diff != "" {
			t.Fatal(diff)
		}
		for _, arr := range [][]byte{arrayOf(body), arrayOf(body, body)} {
			if diff := checkFloatArray(arr); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}

// BenchmarkDecodeFloats times the number parser on its own, in ns/float,
// on the 64-d arrays json.Marshal writes for uniform floats (the ingest
// workloads), for small skewed histogram values, and for a hard mix of
// random bits, 25-digit mantissas and midpoints.
func BenchmarkDecodeFloats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	uniform, skewed, hard := make([]float64, 4096), make([]float64, 0, 4096), make([]string, 0, 4096)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	for _, h := range dataset.CorelLike(64, 64, 1) {
		skewed = append(skewed, h...)
	}
	for len(hard) < 4096 {
		x := math.Float64frombits(rng.Uint64() >> 2)
		hard = append(hard, strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(x, 'e', 24, 64))
		hard = append(hard, halfways(x)[2:4]...)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"uniform", mustMarshal(b, uniform)},
		{"skewed", mustMarshal(b, skewed)},
		{"hard", []byte("[" + strings.Join(hard, ",") + "]")},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var d decoder
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			count := 0
			for i := 0; i < b.N; i++ {
				d.reset(tc.body)
				d.nums = d.nums[:0]
				if !d.appendFloats() {
					b.Fatal("refused")
				}
				count += len(d.nums)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(count), "ns/float")
		})
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestShortRunMatchesGo holds shortRun (the assembly version, where there
// is one) to shortRunGo, its definition: from every element of arrays of
// the float corpus, and from every offset of random bodies over the
// bytes numbers are made of, both convert the same count, stop at the same
// offset, and write the same bits, for every room in out.
func TestShortRunMatchesGo(t *testing.T) {
	sample := 2
	if raceEnabled {
		sample = 32
	}
	var numbers []string
	floatCorpus(sample, func(s string) { numbers = append(numbers, s) })
	compare := func(body []byte, i, room int) (n, end int) {
		got, want := make([]float64, room), make([]float64, room)
		n, end = shortRun(body, i, got)
		wantN, wantEnd := shortRunGo(body, i, want)
		if n != wantN || end != wantEnd {
			t.Fatalf("%q from %d, room %d: %d numbers to offset %d, shortRunGo %d to %d", body, i, room, n, end, wantN, wantEnd)
		}
		for j := range n {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%q from %d: number %d is %#x, shortRunGo %#x", body, i, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
		return n, end
	}
	taken := 0
	for len(numbers) > 0 {
		chunk := numbers[:min(64, len(numbers))]
		numbers = numbers[len(chunk):]
		body := []byte("[" + strings.Join(chunk, ",") + "]")
		for i, room := 1, 1; i < len(body); room = room%9 + 1 {
			n, end := compare(body, i, room*8)
			taken += n
			if n > 0 {
				i = end
			}
			next := bytes.IndexByte(body[i:], ',')
			if next < 0 {
				break
			}
			i += next + 1
		}
	}
	if taken == 0 {
		t.Fatal("shortRun took no number of the corpus")
	}
	rng := rand.New(rand.NewSource(52))
	const alphabet = "0000123456789..--eE,,, ]"
	body := make([]byte, 80)
	for range 20000 / sample {
		for i := range body {
			body[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for i := range 48 {
			compare(body, i, 4)
		}
	}
}

// TestShortFormTakesMarshalledVectors pins that the numbers json.Marshal
// writes for the vectors the workloads send — uniform, box-clustered
// around random centres, Gaussian-clustered and Corel-like — are all read
// in the short form: none reaches strconv.ParseFloat, and none but one
// written with an exponent reaches the general path. The differential
// tests would pass just as well if every number took the general path.
func TestShortFormTakesMarshalledVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := make([][]float64, 256)
	for i := range box {
		if i%16 == 0 {
			box[i] = randVector(rng, 64)
			continue
		}
		box[i] = make([]float64, 64)
		for j, c := range box[i-i%16] {
			box[i][j] = min(max(c+0.03*(rng.Float64()-0.5), 0), 1)
		}
	}
	for _, tc := range []struct {
		name    string
		vectors [][]float64
	}{
		{"uniform", dataset.Uniform(256, 64, 1)},
		{"box-clustered", box},
		{"clustered", dataset.Clustered(dataset.DefaultClustered(256, 64, 1, 1))},
		{"corel", dataset.CorelLike(256, 32, 1)},
		{"one long vector", [][]float64{randVector(rng, 3*runChunk+5)}}, // several shortRun calls
	} {
		body := mustMarshal(t, &IngestRequest{Vectors: tc.vectors})
		var d decoder
		d.reset(body)
		var got IngestRequest
		if !d.value(&got) {
			t.Fatalf("%s: refused", tc.name)
		}
		exponents := bytes.Count(body[bytes.IndexByte(body, '['):], []byte("e"))
		if d.slow != 0 || d.general != exponents {
			t.Fatalf("%s: %d numbers handed to strconv.ParseFloat, %d to the general path (%d written with an exponent)",
				tc.name, d.slow, d.general, exponents)
		}
		for i, v := range got.Vectors {
			for j, f := range v {
				if math.Float64bits(f) != math.Float64bits(tc.vectors[i][j]) {
					t.Fatalf("%s: vector %d element %d: %v, marshalled %v", tc.name, i, j, f, tc.vectors[i][j])
				}
			}
		}
		t.Logf("%s: %d numbers, %d with an exponent", tc.name, len(tc.vectors)*len(tc.vectors[0]), exponents)
	}
}
