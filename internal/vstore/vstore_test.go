package vstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bond/internal/dataset"
	"bond/internal/quant"
)

func sampleVectors() [][]float64 {
	return [][]float64{
		{0.1, 0.2, 0.7},
		{0.5, 0.4, 0.1},
		{0.0, 0.9, 0.1},
	}
}

func TestFromVectorsColumnLayout(t *testing.T) {
	s := FromVectors(sampleVectors())
	if s.Dims() != 3 || s.Len() != 3 || s.Live() != 3 {
		t.Fatalf("dims=%d len=%d live=%d", s.Dims(), s.Len(), s.Live())
	}
	col1 := s.Column(1)
	want := []float64{0.2, 0.4, 0.9}
	for i := range want {
		if col1[i] != want[i] {
			t.Errorf("col1[%d] = %v, want %v", i, col1[i], want[i])
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	vs := sampleVectors()
	s := FromVectors(vs)
	for id, v := range vs {
		got := s.Row(id)
		for d := range v {
			if got[d] != v[d] {
				t.Errorf("Row(%d)[%d] = %v, want %v", id, d, got[d], v[d])
			}
		}
	}
}

func TestTotals(t *testing.T) {
	s := FromVectors(sampleVectors())
	want := []float64{1.0, 1.0, 1.0}
	for i, x := range s.Totals() {
		if math.Abs(x-want[i]) > 1e-12 {
			t.Errorf("total[%d] = %v, want %v", i, x, want[i])
		}
	}
}

func TestAppendExtendsAllColumns(t *testing.T) {
	s := New(2)
	id := s.Append([]float64{0.3, 0.6})
	if id != 0 || s.Len() != 1 {
		t.Fatalf("id=%d len=%d", id, s.Len())
	}
	id = s.Append([]float64{0.1, 0.2})
	if id != 1 {
		t.Fatalf("second id = %d", id)
	}
	if s.Column(0)[1] != 0.1 || s.Column(1)[1] != 0.2 {
		t.Error("columns not extended consistently")
	}
	if math.Abs(s.Totals()[1]-0.3) > 1e-12 {
		t.Errorf("total = %v", s.Totals()[1])
	}
}

func TestAppendDimMismatchPanics(t *testing.T) {
	s := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Append([]float64{1})
}

func TestDeleteAndLive(t *testing.T) {
	s := FromVectors(sampleVectors())
	s.Delete(1)
	if s.Live() != 2 || !s.IsDeleted(1) || s.IsDeleted(0) {
		t.Errorf("live=%d", s.Live())
	}
	s.Delete(1) // idempotent
	if s.Live() != 2 {
		t.Error("double delete changed live count")
	}
	ids := s.LiveIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("LiveIDs = %v", ids)
	}
}

func TestReorganizeCompacts(t *testing.T) {
	vs := sampleVectors()
	s := FromVectors(vs)
	s.Delete(0)
	mapping := s.Reorganize()
	if s.Len() != 2 || s.Live() != 2 {
		t.Fatalf("after reorganize: len=%d live=%d", s.Len(), s.Live())
	}
	if mapping[0] != -1 || mapping[1] != 0 || mapping[2] != 1 {
		t.Errorf("mapping = %v", mapping)
	}
	// Vector 2 must now live at id 1 with intact coefficients.
	got := s.Row(1)
	for d := range vs[2] {
		if got[d] != vs[2][d] {
			t.Errorf("relocated row[%d] = %v, want %v", d, got[d], vs[2][d])
		}
	}
}

func TestReorganizeNoDeletionsIsIdentity(t *testing.T) {
	s := FromVectors(sampleVectors())
	mapping := s.Reorganize()
	for i, m := range mapping {
		if m != i {
			t.Errorf("mapping[%d] = %d", i, m)
		}
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestAppendAfterDeleteKeepsMarks(t *testing.T) {
	s := FromVectors(sampleVectors())
	s.Delete(2)
	id := s.Append([]float64{0.2, 0.2, 0.6})
	if id != 3 {
		t.Fatalf("id = %d", id)
	}
	if !s.IsDeleted(2) || s.IsDeleted(3) {
		t.Error("delete marks lost across append")
	}
	if s.Live() != 3 {
		t.Errorf("live = %d", s.Live())
	}
}

func TestQuantize(t *testing.T) {
	s := FromVectors(sampleVectors())
	qs := s.Quantize(quant.NewUnit())
	if len(qs.Codes) != 3 {
		t.Fatalf("code columns = %d", len(qs.Codes))
	}
	for d := 0; d < 3; d++ {
		for id := 0; id < 3; id++ {
			x := s.Column(d)[id]
			c := qs.Codes[d][id]
			if x < qs.Q.CellLower(c)-1e-12 || x > qs.Q.CellUpper(c)+1e-12 {
				t.Errorf("value %v not in its cell (d=%d id=%d)", x, d, id)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	vs := dataset.CorelLike(40, 16, 3)
	s := FromVectors(vs)
	s.Delete(7)
	s.Delete(13)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != s.Len() || got.Dims() != s.Dims() || got.Live() != s.Live() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			got.Len(), got.Dims(), got.Live(), s.Len(), s.Dims(), s.Live())
	}
	for d := 0; d < s.Dims(); d++ {
		for id := 0; id < s.Len(); id++ {
			if got.Column(d)[id] != s.Column(d)[id] {
				t.Fatalf("column %d id %d differs", d, id)
			}
		}
	}
	for id := 0; id < s.Len(); id++ {
		if got.IsDeleted(id) != s.IsDeleted(id) {
			t.Errorf("delete mark mismatch at %d", id)
		}
		if got.Totals()[id] != s.Totals()[id] {
			t.Errorf("total mismatch at %d", id)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	s := FromVectors(sampleVectors())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[20] ^= 0xFF
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload accepted")
	}

	// Truncate: must error, not panic.
	if _, err := Load(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Error("truncated file accepted")
	}

	// Bad magic.
	bad2 := append([]byte(nil), data...)
	bad2[0] = 'X'
	if _, err := Load(bytes.NewReader(bad2)); err == nil {
		t.Error("bad magic accepted")
	}
}

// Property: save/load round-trips arbitrary stores bit-exactly.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%20 + 1
		dims := int(dRaw)%8 + 1
		vs := make([][]float64, n)
		for i := range vs {
			v := make([]float64, dims)
			for d := range v {
				v[d] = rng.Float64()
			}
			vs[i] = v
		}
		s := FromVectors(vs)
		if rng.Intn(2) == 0 {
			s.Delete(rng.Intn(n))
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		for d := 0; d < dims; d++ {
			for id := 0; id < n; id++ {
				if got.Column(d)[id] != s.Column(d)[id] {
					return false
				}
			}
		}
		return got.Live() == s.Live()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValueRangeTracking(t *testing.T) {
	s := New(2)
	lo, hi := s.ValueRange()
	if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Errorf("empty range = [%v, %v]", lo, hi)
	}
	s.Append([]float64{0.2, 0.8})
	s.AppendBatch([][]float64{{0.1, 0.9}, {0.5, 0.5}})
	lo, hi = s.ValueRange()
	if lo != 0.1 || hi != 0.9 {
		t.Errorf("range = [%v, %v], want [0.1, 0.9]", lo, hi)
	}
	// The range survives save/load.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = got.ValueRange()
	if lo != 0.1 || hi != 0.9 {
		t.Errorf("loaded range = [%v, %v]", lo, hi)
	}
}
