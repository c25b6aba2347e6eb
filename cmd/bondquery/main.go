// Command bondquery runs k-NN queries against a durable collection
// directory (written by bondgen, or served by bondd) through the
// cost-based query planner.
//
// Usage:
//
//	bondquery -store corel.bond -id 17 -k 10 -criterion Hq
//	bondquery -store skew1.bond -id 0 -k 5 -criterion Ev -stats
//	bondquery -store corel.bond -id 17 -explain
//	bondquery -store corel.bond -id 17 -strategy vafile
//
// The query vector is taken from the collection by id (the common
// query-by-example pattern of image retrieval). Every query goes through
// the planner: -strategy=auto (the default) picks an access path per
// segment by predicted cost from the segment's synopsis and fixed
// per-path priors, which makes it BOND throughout, and the forced
// strategies (bond, compressed, vafile, exact) pin one path everywhere.
// -explain prints the plan with per-segment predicted and actual costs.
// For profiling, -repeat N heats the query loop and -cpuprofile/
// -memprofile write pprof profiles.
//
// bondquery opens the directory with OpenDurable, which recovers it and
// garbage-collects files its manifest does not name: never point it at a
// directory a running bondd serves. A snapshot file of an earlier release
// is refused; convert it first with that release's bondgen -import.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"bond"
)

func main() {
	storePath := flag.String("store", "", "durable collection directory, e.g. written by bondgen (required)")
	id := flag.Int("id", 0, "query-by-example: id of the query vector inside the collection")
	k := flag.Int("k", 10, "number of neighbors")
	criterion := flag.String("criterion", "Hq", "pruning criterion: Hq, Hh, Eq, Ev")
	step := flag.Int("step", 0, "pruning step m (0 = default)")
	order := flag.String("order", "desc", "dimension order: desc (Hq/Hh by decreasing query value; Eq/Ev by decreasing expected contribution over the collection's values), asc, random, natural")
	strategy := flag.String("strategy", "auto", "access path: auto, bond, compressed, vafile, exact")
	explain := flag.Bool("explain", false, "print the plan: per-segment path, predicted and actual cost")
	showStats := flag.Bool("stats", false, "print per-step pruning statistics")
	repeat := flag.Int("repeat", 1, "run the query this many times (profiling hot loops)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *storePath == "" {
		fmt.Fprintln(os.Stderr, "bondquery: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}
	col, err := bond.OpenDurable(*storePath, bond.DurableOptions{})
	if err != nil {
		fatal(err)
	}
	defer col.Close()
	if *id < 0 || *id >= col.Len() {
		fatal(fmt.Errorf("id %d outside collection [0,%d)", *id, col.Len()))
	}

	crit, err := bond.ParseCriterion(*criterion)
	if err != nil {
		fatal(err)
	}
	ord, err := bond.ParseOrder(*order)
	if err != nil {
		fatal(err)
	}
	strat, err := bond.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	q := col.Vector(*id)
	spec := bond.QuerySpec{
		Query:     q,
		K:         *k,
		Criterion: crit,
		Step:      *step,
		Order:     ord,
		Strategy:  strat,
	}
	// Extra repetitions (profiling mode) run through the plain pooled
	// Query path — the one production traffic takes.
	for i := 1; i < *repeat; i++ {
		if _, err := col.Query(spec); err != nil {
			fatal(err)
		}
	}
	res, p, err := col.QueryExplain(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("collection %s: %d × %d in %d segments, query id %d, criterion %s, strategy %s\n",
		*storePath, col.Len(), col.Dims(), col.NumSegments(), *id, crit, strat)
	for rank, r := range res.Results {
		fmt.Printf("%3d. id=%-8d score=%.6f\n", rank+1, r.ID, r.Score)
	}
	full := int64(col.Live() * col.Dims())
	fmt.Printf("values scanned: %d of %d (%.1f%% of a full scan); segments searched %d, skipped %d\n",
		res.Stats.ValuesScanned, full, 100*float64(res.Stats.ValuesScanned)/float64(full),
		res.Stats.SegmentsSearched, res.Stats.SegmentsSkipped)
	if *explain {
		fmt.Print(p.Explain())
	}
	if *showStats {
		fmt.Println("pruning steps:")
		for _, st := range res.Stats.Steps {
			suffix := ""
			if st.Skipped {
				suffix = " (skipped: futile)"
			}
			fmt.Printf("  seg %2d, after %3d dims: %d candidates%s\n",
				st.Segment, st.DimsProcessed, st.Candidates, suffix)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bondquery:", err)
	os.Exit(1)
}
