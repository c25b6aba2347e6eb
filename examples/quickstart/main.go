// Quickstart: build a collection, search it, inspect the pruning.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bond"
	"bond/internal/dataset"
)

func main() {
	// 10,000 synthetic 64-bin color histograms (bring your own [][]float64
	// in a real application — anything non-negative works; normalize each
	// vector to sum 1 for the histogram-intersection criteria).
	vectors := dataset.CorelLike(10000, 64, 1)
	col := bond.NewCollection(vectors)

	// Query by example: find the 10 histograms most similar to vector 123.
	query := col.Vector(123)
	res, err := col.Query(bond.QuerySpec{Query: query, K: 10, Criterion: bond.Hq, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top 10 by histogram intersection:")
	for rank, r := range res.Results {
		fmt.Printf("%3d. id=%-6d similarity=%.4f\n", rank+1, r.ID, r.Score)
	}

	// BOND read a fraction of what a sequential scan would. The collection
	// is stored as sealed segments plus one active segment; segments whose
	// min/max synopsis proves them hopeless are skipped without a read.
	full := int64(col.Live() * col.Dims())
	fmt.Printf("\nwork: %d of %d values (%.1f%% of a full scan)\n",
		res.Stats.ValuesScanned, full, 100*float64(res.Stats.ValuesScanned)/float64(full))
	fmt.Printf("segments: %d total, %d searched, %d skipped by synopsis\n",
		col.NumSegments(), res.Stats.SegmentsSearched, res.Stats.SegmentsSkipped)
	fmt.Println("candidate set after each pruning step (per segment):")
	for _, st := range res.Stats.Steps {
		fmt.Printf("  seg %d, %3d dims -> %d candidates\n", st.Segment, st.DimsProcessed, st.Candidates)
	}

	// The same collection answers Euclidean queries too.
	resE, err := col.Query(bond.QuerySpec{Query: query, K: 3, Criterion: bond.Ev, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop 3 by squared Euclidean distance:")
	for rank, r := range resE.Results {
		fmt.Printf("%3d. id=%-6d distance=%.6f\n", rank+1, r.ID, r.Score)
	}
}
