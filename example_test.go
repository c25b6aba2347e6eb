package bond_test

import (
	"fmt"

	"bond"
)

// fourHistograms is a tiny normalized collection used by the examples:
// the paper's Table 2 vectors h3, h5, h7 and h2 (in that order).
func fourHistograms() [][]float64 {
	return [][]float64{
		{0.8, 0.1, 0.05, 0.05},
		{0.7, 0.15, 0.15, 0},
		{0.55, 0.2, 0.15, 0.1},
		{0.05, 0.05, 0.9, 0},
	}
}

// The basic flow: decompose a collection, search by example.
func ExampleCollection_Query() {
	col := bond.NewCollection(fourHistograms())
	query := []float64{0.7, 0.15, 0.1, 0.05}
	res, err := col.Query(bond.QuerySpec{Query: query, K: 2, Criterion: bond.Hq, Strategy: bond.StrategyBOND})
	if err != nil {
		panic(err)
	}
	for _, r := range res.Results {
		fmt.Printf("id=%d score=%.2f\n", r.ID, r.Score)
	}
	// Output:
	// id=1 score=0.95
	// id=0 score=0.90
}

// Euclidean search on the same single data representation.
func ExampleCollection_Query_euclidean() {
	col := bond.NewCollection(fourHistograms())
	query := []float64{0.8, 0.1, 0.05, 0.05} // h3 itself
	res, err := col.Query(bond.QuerySpec{Query: query, K: 1, Criterion: bond.Ev, Strategy: bond.StrategyBOND})
	if err != nil {
		panic(err)
	}
	fmt.Printf("nearest: id=%d distance=%.1f\n", res.Results[0].ID, res.Results[0].Score)
	// Output:
	// nearest: id=0 distance=0.0
}

// A weighted query emphasizes chosen dimensions (Definition 3); zero
// weights exclude dimensions entirely (subspace search, Section 8.1).
func ExampleCollection_Query_weighted() {
	col := bond.NewCollection(fourHistograms())
	query := []float64{0.0, 0.2, 0.9, 0.0}
	weights := []float64{0, 1, 4, 0} // only dims 1–2 matter, dim 2 most
	res, err := col.Query(bond.QuerySpec{Query: query, K: 1, Criterion: bond.Ev, Weights: weights, Strategy: bond.StrategyBOND})
	if err != nil {
		panic(err)
	}
	fmt.Printf("best: id=%d\n", res.Results[0].ID)
	// Output:
	// best: id=3
}

// QueryUsefulness predicts pruning power: skewed queries are useful,
// uniform ones are hostile (Sections 7.5 and 9).
func ExampleQueryUsefulness() {
	skewed := []float64{0.9, 0.05, 0.03, 0.02}
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	fmt.Printf("skewed > uniform: %v\n",
		bond.QueryUsefulness(skewed, nil, bond.Hq) > bond.QueryUsefulness(uniform, nil, bond.Hq))
	// Output:
	// skewed > uniform: true
}
