package core

// Moments is the mean and variance of each dimension's stored values,
// both indexed by dimension; empty when no values were seen.
type Moments struct {
	Mean, Var []float64
}

// MomentSums accumulates per-dimension Σv and Σv² over whole sources. Each
// source's column is summed in row order from 0 and the sum then added to
// the total, so the totals are a function of the sources and the order
// they were added in: adding sources one at a time gives the same bits as
// adding them all at once.
type MomentSums struct {
	Sum, SumSq    []float64
	Rows, Sources int // rows and sources added
}

// Add folds every row of src into the sums, delete-marked ones included.
func (s *MomentSums) Add(src Source) {
	if s.Sum == nil {
		s.Sum, s.SumSq = make([]float64, src.Dims()), make([]float64, src.Dims())
	}
	n := src.Len()
	for d := range s.Sum {
		var a, b float64
		for _, x := range src.Column(d)[:n] {
			a += x
			b += float64(x * x) // no fused multiply-add: the same bits on every platform
		}
		s.Sum[d] += a
		s.SumSq[d] += b
	}
	s.Rows += n
	s.Sources++
}

// Moments returns the mean and variance the sums describe.
func (s *MomentSums) Moments() *Moments {
	if s.Rows == 0 {
		return &Moments{}
	}
	m := &Moments{Mean: make([]float64, len(s.Sum)), Var: make([]float64, len(s.Sum))}
	n := float64(s.Rows)
	for d := range s.Sum {
		mu := s.Sum[d] / n
		m.Mean[d], m.Var[d] = mu, max(s.SumSq[d]/n-mu*mu, 0)
	}
	return m
}
