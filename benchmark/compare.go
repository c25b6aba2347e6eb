package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints, for every workload × end-to-end metric present in
// both -record files, the medians, how much worse B is than A as a share
// of A's median, the metric's bound, and the spread and range of A's own
// runs (interquartile range and max − min, over the median — a difference
// inside the spread is noise; the bounds were derived from the range).
// It returns 1 when any worsening exceeds its bound, 2 when a file cannot
// be read, 0 otherwise.
func compareFiles(pathA, pathB string) int {
	a, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	breaches := 0
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s %9s %9s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "spread A", "range A", "runs")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.name][d.name], b[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				breaches++
			}
			sa := sortedCopy(va)
			fmt.Printf("%-16s %-14s %14.4f %14.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %d/%d%s\n",
				w.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*spread(va), 100*(sa[len(sa)-1]-sa[0])/ma, len(va), len(vb), verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", breaches)
		return 1
	}
	return 0
}

// spread is the interquartile range of xs as a share of their median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// exclusive method) — the harness's steadiness measure.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k*(len(s)+1)) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// loadRecords reads a -record file into workload → metric → values,
// keeping end-to-end runs only.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}
