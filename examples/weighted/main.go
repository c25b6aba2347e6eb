// Weighted: weighted and subspace k-NN queries (Section 8.1 of the paper).
//
// A relevance-feedback loop in image retrieval re-weights dimensions after
// each round; BOND answers the re-weighted query on the same single data
// representation, reading only the columns that matter.
//
// Run with: go run ./examples/weighted
package main

import (
	"fmt"
	"log"

	"bond"
	"bond/internal/dataset"
)

func main() {
	const (
		n    = 15000
		dims = 128
		k    = 5
	)
	vectors := dataset.Clustered(dataset.DefaultClustered(n, dims, 1.0, 3))
	col := bond.NewCollection(vectors)
	query := col.Vector(99)

	// Round 0: plain Euclidean search.
	res, err := col.Query(bond.QuerySpec{Query: query, K: k, Criterion: bond.Ev, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unweighted nearest neighbors:")
	print5(res)

	// Round 1: the user marked a few dimensions as important; relevance
	// feedback concentrates 90 % of the weight on 10 % of the dimensions.
	weights := dataset.WeightsZipf(dims, 3.0, 17)
	wres, err := col.Query(bond.QuerySpec{Query: query, K: k, Criterion: bond.Ev, Weights: weights, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith skewed feedback weights:")
	print5(wres)
	fmt.Printf("weighted search scanned %d values vs %d unweighted\n",
		wres.Stats.ValuesScanned, res.Stats.ValuesScanned)

	// Round 2: a subspace query — only 8 named dimensions matter. BOND
	// never touches the other 120 columns.
	sub := []int{0, 5, 17, 23, 42, 77, 101, 120}
	sres, err := col.Query(bond.QuerySpec{Query: query, K: k, Criterion: bond.Ev, Dims: sub, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubspace query over %d of %d dimensions:\n", len(sub), dims)
	print5(sres)
	fmt.Printf("subspace search scanned %d values (max possible %d)\n",
		sres.Stats.ValuesScanned, len(sub)*n)
}

func print5(res bond.QueryResult) {
	for rank, r := range res.Results {
		fmt.Printf("  %2d. id=%-6d distance=%.6f\n", rank+1, r.ID, r.Score)
	}
}
