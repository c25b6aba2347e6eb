// Imagesearch: the paper's motivating application — interactive
// content-based image retrieval over HSV color histograms.
//
// The example demonstrates query-by-example search, the compressed
// filter-and-refine path, combining k-NN with a selection predicate, and
// updates (append + delete + compact).
//
// Run with: go run ./examples/imagesearch
package main

import (
	"fmt"
	"log"
	"time"

	"bond"
	"bond/internal/dataset"
)

func main() {
	const (
		nImages = 20000
		bins    = 166 // (18 hues × 3 saturations × 3 values) + 4 grays
		k       = 10
	)
	fmt.Printf("indexing %d images as %d-bin HSV histograms...\n", nImages, bins)
	histograms := dataset.CorelLike(nImages, bins, 7)
	col := bond.NewCollection(histograms)

	query := col.Vector(4711) // "find images like this one"

	// Exact BOND search.
	start := time.Now()
	res, err := col.Query(bond.QuerySpec{Query: query, K: k, Criterion: bond.Hq, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	bondTime := time.Since(start)
	fmt.Printf("\nBOND (Hq): %v, scanned %d values\n", bondTime, res.Stats.ValuesScanned)
	printTop(res.Results, 5)

	// Compressed filter-and-refine: reads 8-bit codes first, exact values
	// only for the handful of survivors.
	start = time.Now()
	cres, cplan, err := col.QueryExplain(bond.QuerySpec{Query: query, K: k, Criterion: bond.Hq, Strategy: bond.StrategyCompressed})
	if err != nil {
		log.Fatal(err)
	}
	kept := 0
	for _, st := range cplan.Steps {
		kept += st.Candidates
	}
	fmt.Printf("\ncompressed BOND: %v, filter kept %d candidates, read %d values (codes + exact)\n",
		time.Since(start), kept, cres.Stats.ValuesScanned)
	printTop(cres.Results, 5)

	// k-NN restricted by a predicate: "only images from batch B" becomes an
	// exclusion bitmap over everything else (Section 6.1 of the paper).
	excl := col.NewExclusion()
	for id := 0; id < col.Len(); id++ {
		if id%3 != 0 { // keep only every third image
			excl.Set(id)
		}
	}
	pres, err := col.Query(bond.QuerySpec{Query: query, K: k, Criterion: bond.Hq, Exclude: excl, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith predicate (every third image only):")
	printTop(pres.Results, 5)

	// Updates: new images arrive, an old one is removed.
	newID, err := col.AddDurable(query) // an exact duplicate of the query image
	if err != nil {
		log.Fatal(err)
	}
	if _, err := col.TryDeleteDurable(4711); err != nil {
		log.Fatal(err)
	}
	res2, err := col.Query(bond.QuerySpec{Query: query, K: 1, Criterion: bond.Hq, Strategy: bond.StrategyBOND})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter appending a duplicate and deleting the original: best = id %d (want %d)\n",
		res2.Results[0].ID, newID)
	if _, err := col.CompactRatioDurable(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted: %d live images\n", col.Live())
}

func printTop(results []bond.Neighbor, n int) {
	for rank, r := range results {
		if rank == n {
			break
		}
		fmt.Printf("  %2d. image %-6d similarity %.4f\n", rank+1, r.ID, r.Score)
	}
}
