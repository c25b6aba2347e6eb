// Command bondbench regenerates the tables and figures of the paper's
// evaluation (Sections 7 and 8) at a configurable scale.
//
// Usage:
//
//	bondbench -all                 # every figure, table, and ablation
//	bondbench -fig 4 -fig 7        # selected figures
//	bondbench -table 3             # selected tables
//	bondbench -exp multifeature    # the Section 8.2 experiment
//	bondbench -exp usefulness      # the Section 9 query-usefulness check
//	bondbench -exp clustering      # BOND-assignment k-means vs Lloyd's
//	bondbench -ablations           # design-choice ablations
//	bondbench -full -all           # paper scale (59,619 × 166, 100 queries)
//
// Scale flags (-n, -dims, -queries, -k, -step, -seed) override both the
// default and -full configurations.
//
// -cpuprofile and -memprofile capture pprof profiles of whatever was
// selected, so a regression can be diagnosed without editing code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"bond/internal/bench"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var figs, tables intList
	var exps []string
	flag.Var(&figs, "fig", "figure number to regenerate (repeatable): 2, 4–11")
	flag.Var(&tables, "table", "table number to regenerate (repeatable): 3, 4")
	flag.Func("exp", "named experiment (repeatable): multifeature, usefulness, clustering", func(s string) error {
		exps = append(exps, s)
		return nil
	})
	all := flag.Bool("all", false, "run every figure, table, and experiment")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	full := flag.Bool("full", false, "use the paper-scale configuration")
	n := flag.Int("n", 0, "collection size (0 = configuration default)")
	dims := flag.Int("dims", 0, "dimensionality (0 = configuration default)")
	queries := flag.Int("queries", 0, "query workload size (0 = configuration default)")
	k := flag.Int("k", 0, "neighbors per query (0 = configuration default)")
	step := flag.Int("step", 0, "pruning step m (0 = configuration default)")
	seed := flag.Int64("seed", 0, "workload seed (0 = configuration default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

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

	cfg := bench.Default()
	if *full {
		cfg = bench.Paper()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *dims > 0 {
		cfg.Dims = *dims
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *step > 0 {
		cfg.Step = *step
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	if *all {
		figs = []int{2, 4, 5, 6, 7, 8, 9, 10, 11}
		tables = []int{3, 4}
		exps = []string{"multifeature", "usefulness", "clustering"}
		*ablations = true
	}
	if len(figs) == 0 && len(tables) == 0 && len(exps) == 0 && !*ablations {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -fig N, -table N, -exp NAME, or -ablations")
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("configuration: n=%d dims=%d queries=%d k=%d step=%d seed=%d\n\n",
		cfg.N, cfg.Dims, cfg.Queries, cfg.K, cfg.Step, cfg.Seed)

	figRunners := map[int]func(bench.Config) bench.Figure{
		2:  bench.Fig2DatasetStats,
		4:  bench.Fig4PruningHqHh,
		5:  bench.Fig5PruningEqEv,
		6:  bench.Fig6EffectOfK,
		7:  bench.Fig7Orderings,
		8:  bench.Fig8Dimensionality,
		9:  bench.Fig9Compression,
		10: bench.Fig10DataSkew,
		11: bench.Fig11WeightSkew,
	}
	tableRunners := map[int]func(bench.Config) bench.Table{
		3: bench.Table3ResponseTimes,
		4: bench.Table4Approximations,
	}

	for _, id := range figs {
		run, ok := figRunners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %d\n", id)
			os.Exit(2)
		}
		fig := run(cfg)
		if err := fig.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	for _, id := range tables {
		run, ok := tableRunners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown table %d\n", id)
			os.Exit(2)
		}
		tab := run(cfg)
		if err := tab.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	for _, name := range exps {
		var tab bench.Table
		switch strings.ToLower(name) {
		case "multifeature":
			tab = bench.MultiFeatureComparison(cfg)
		case "usefulness":
			tab = bench.UsefulnessValidation(cfg)
		case "clustering":
			tab = bench.ClusteringComparison(cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *ablations {
		for _, tab := range []bench.Table{
			bench.AblationStepM(cfg),
			bench.AblationBitmapSwitch(cfg),
			bench.AblationAbandonScan(cfg),
			bench.AblationAdaptiveStep(cfg),
		} {
			if err := tab.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bondbench:", err)
	os.Exit(1)
}
