package bat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bond/internal/bitmap"
)

func TestVoidHeads(t *testing.T) {
	b := NewFloatVoid(5, []float64{1, 2, 3})
	if !b.IsVoid() {
		t.Fatal("expected void head")
	}
	if b.HeadAt(0) != 5 || b.HeadAt(2) != 7 {
		t.Errorf("HeadAt = %d, %d; want 5, 7", b.HeadAt(0), b.HeadAt(2))
	}
	m := &Float{Head: []int{9, 4}, Tail: []float64{1, 2}}
	if m.IsVoid() {
		t.Error("materialized head reported void")
	}
	if m.HeadAt(1) != 4 {
		t.Errorf("HeadAt(1) = %d, want 4", m.HeadAt(1))
	}
}

func TestMapMinConst(t *testing.T) {
	src := []float64{0.1, 0.5, 0.9}
	got := make([]float64, 3)
	MapMinConstInto(got, src, 0.4)
	want := []float64{0.1, 0.4, 0.4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if src[1] != 0.5 {
		t.Error("MapMinConstInto must not mutate its source")
	}
	// In place, as the positional phase applies it to the gather column.
	MapMinConstInto(src, src, 0.4)
	for i := range want {
		if src[i] != want[i] {
			t.Errorf("in place [%d] = %v, want %v", i, src[i], want[i])
		}
	}
}

func TestAddInto(t *testing.T) {
	sum := NewFloatVoid(0, []float64{1, 2})
	AddInto(sum, NewFloatVoid(0, []float64{10, 20}))
	AddInto(sum, NewFloatVoid(0, []float64{100, 200}))
	if sum.Tail[0] != 111 || sum.Tail[1] != 222 {
		t.Errorf("AddInto = %v", sum.Tail)
	}
}

func TestAddIntoPanicsOnMisalignment(t *testing.T) {
	a := NewFloatVoid(0, []float64{1, 2})
	b := NewFloatVoid(1, []float64{1, 2}) // different base
	defer func() {
		if recover() == nil {
			t.Error("expected panic on misaligned bases")
		}
	}()
	AddInto(a, b)
}

func TestUSelect(t *testing.T) {
	b := NewFloatVoid(10, []float64{0.2, 0.8, 0.5, 0.9})
	got := USelectInto(nil, b, 0.5, 1.0)
	want := []int{11, 12, 13}
	if len(got) != 3 {
		t.Fatalf("selected %d, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("oid[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUSelectBitmap(t *testing.T) {
	b := NewFloatVoid(0, []float64{0.2, 0.8, 0.5})
	bm := bitmap.New(3)
	USelectBitmapInto(bm, b, 0.5, 1.0)
	if bm.Count() != 2 || !bm.Get(1) || !bm.Get(2) {
		t.Errorf("bitmap = %v", bm.Slice())
	}
}

func TestUSelectBitmapPanicsOnMaterializedHead(t *testing.T) {
	b := &Float{Head: []int{3, 1}, Tail: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	USelectBitmapInto(bitmap.New(4), b, 0, 1)
}

func TestJoinFloatPositionalGather(t *testing.T) {
	hi := NewFloatVoid(0, []float64{0.0, 0.1, 0.2, 0.3, 0.4})
	got := make([]float64, 3)
	JoinFloatInto(got, &OID{Tail: []int{4, 1, 3}}, hi)
	want := []float64{0.4, 0.1, 0.3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gather[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJoinFloatPanicsOnBadOID(t *testing.T) {
	hi := NewFloatVoid(0, []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	JoinFloatInto(make([]float64, 1), &OID{Tail: []int{5}}, hi)
}

func TestSelectFloat(t *testing.T) {
	b := NewFloatVoid(0, []float64{10, 20, 30, 40})
	bm := bitmap.FromSlice(4, []int{0, 2})
	got := SelectFloatInto(nil, b, bm)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("SelectFloatInto = %v", got)
	}
}

// Property: the two physical forms of uselect agree on the selected oid set.
func TestUSelectVariantsAgree(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 1
		b := NewFloatVoid(0, randTail(rng, n))
		lo, hi := rng.Float64(), rng.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		oids := USelectInto(nil, b, lo, hi)
		bm := bitmap.New(n)
		USelectBitmapInto(bm, b, lo, hi)
		if len(oids) != bm.Count() {
			return false
		}
		for _, oid := range oids {
			if !bm.Get(oid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randTail(rng *rand.Rand, n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = rng.Float64()
	}
	return t
}

func BenchmarkMapMinConst(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randTail(rng, 100000)
	dst := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MapMinConstInto(dst, src, 0.5)
	}
}

func BenchmarkJoinFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hi := NewFloatVoid(0, randTail(rng, 100000))
	c := &OID{Tail: rng.Perm(100000)[:1000]}
	dst := make([]float64, len(c.Tail))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinFloatInto(dst, c, hi)
	}
}
