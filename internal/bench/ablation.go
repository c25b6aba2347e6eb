package bench

import (
	"fmt"
	"time"

	"bond/internal/baseline/mil"
	"bond/internal/core"
	"bond/internal/seqscan"
	"bond/internal/stats"
)

// AblationStepM sweeps the pruning granularity m (Section 5.2): small m
// prunes sooner but pays more kfetch/compaction overhead, large m scans
// more values before the first reduction.
func AblationStepM(cfg Config) Table {
	_, store, queries := corelWorkload(cfg)
	t := Table{
		ID:     "Ablation m",
		Title:  "Choice of pruning step m (Hq); times in msec",
		Header: []string{"m", "avg ms", "avg values scanned"},
	}
	for _, m := range []int{2, 4, 8, 16, 32, 64} {
		if m >= cfg.Dims {
			continue
		}
		var times []time.Duration
		var scanned float64
		for _, q := range queries {
			var res core.Result
			times = append(times, timeIt(func() {
				var err error
				res, err = core.Search(store, q, core.Options{K: cfg.K, Criterion: core.Hq, Step: m})
				if err != nil {
					panic(err)
				}
			}))
			scanned += float64(res.Stats.ValuesScanned)
		}
		s := stats.SummarizeDurations(times)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.0f", scanned/float64(len(queries))),
		})
	}
	return t
}

// AblationBitmapSwitch sweeps the MIL engine's bitmap→positional-join
// switch-over point (Section 6.1).
func AblationBitmapSwitch(cfg Config) Table {
	_, store, queries := corelWorkload(cfg)
	t := Table{
		ID:     "Ablation bitmap",
		Title:  "MIL engine: bitmap vs positional-join switch point; times in msec",
		Header: []string{"switch fraction", "avg ms"},
	}
	for _, sw := range []float64{1e-9, 0.01, 0.05, 0.2, 1} {
		var times []time.Duration
		for _, q := range queries {
			times = append(times, timeIt(func() {
				if _, err := mil.SearchMIL(store, q, mil.MILOptions{K: cfg.K, Step: cfg.Step, BitmapSwitch: sw}); err != nil {
					panic(err)
				}
			}))
		}
		s := stats.SummarizeDurations(times)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2g", sw), fmt.Sprintf("%.2f", s.Mean)})
	}
	return t
}

// AblationAbandonScan reproduces the paper's footnote 6: the
// partial-abandon sequential scan against the plain scan and BOND.
func AblationAbandonScan(cfg Config) Table {
	vectors, store, queries := corelWorkload(cfg)
	t := Table{
		ID:     "Ablation abandon",
		Title:  "Partial-abandon sequential scan (footnote 6); times in msec",
		Header: []string{"method", "avg ms", "avg values scanned"},
	}
	type method struct {
		name string
		run  func(q []float64) int64
	}
	methods := []method{
		{"SSH", func(q []float64) int64 {
			_, st := seqscan.SearchHistogram(vectors, q, cfg.K)
			return st.ValuesScanned
		}},
		{"SSH abandon/8", func(q []float64) int64 {
			_, st := seqscan.SearchHistogramAbandon(vectors, q, cfg.K, 8)
			return st.ValuesScanned
		}},
		{"SSH abandon/32", func(q []float64) int64 {
			_, st := seqscan.SearchHistogramAbandon(vectors, q, cfg.K, 32)
			return st.ValuesScanned
		}},
		{"BOND Hq", func(q []float64) int64 {
			res, err := core.Search(store, q, core.Options{K: cfg.K, Criterion: core.Hq, Step: cfg.Step})
			if err != nil {
				panic(err)
			}
			return res.Stats.ValuesScanned
		}},
	}
	for _, m := range methods {
		var times []time.Duration
		var scanned float64
		for _, q := range queries {
			q := q
			var vals int64
			times = append(times, timeIt(func() { vals = m.run(q) }))
			scanned += float64(vals)
		}
		s := stats.SummarizeDurations(times)
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.0f", scanned/float64(len(queries))),
		})
	}
	return t
}
