// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Sections 7 and 8), each regenerating the same
// rows or series the paper reports, at a configurable scale.
//
// The runners are shared by cmd/bondbench (human-readable output, paper
// scale with -full) and by the root package's testing.B benchmarks
// (scaled-down defaults). Absolute milliseconds differ from the paper's
// 2002 testbed; the shape — who wins, by what factor, where curves bend —
// is the reproduction target, and the Test*Shape tests in this package
// check it for every runner.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Config sets the scale of an experiment.
type Config struct {
	// N is the collection size (paper: 59,619 for Corel, 100,000 synthetic).
	N int
	// Dims is the dimensionality (paper: 166 for Corel, 128 synthetic).
	Dims int
	// Queries is the query-workload size (paper: 100).
	Queries int
	// K is the number of neighbors (paper default: 10).
	K int
	// Step is BOND's pruning granularity m (paper: 8).
	Step int
	// Seed makes every generated workload reproducible.
	Seed int64
}

// Default is the scaled-down configuration used by the Go benchmarks:
// small enough for quick runs, large enough to show the paper's shapes.
func Default() Config {
	return Config{N: 4000, Dims: 64, Queries: 10, K: 10, Step: 8, Seed: 42}
}

// Paper is the full configuration of the paper's Section 7 experiments.
func Paper() Config {
	return Config{N: 59619, Dims: 166, Queries: 100, K: 10, Step: 8, Seed: 42}
}

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a regenerated paper figure: labelled curves over a shared
// domain.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a regenerated paper table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the figure as aligned columns: the union of x values, one
// column per series.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "   x = %s, y = %s\n", f.XLabel, f.YLabel); err != nil {
		return err
	}
	// Collect the x grid from the first series (all runners share grids
	// within one figure; series with different grids are printed separately).
	groups := groupByGrid(f.Series)
	for _, g := range groups {
		header := make([]string, 0, len(g)+1)
		header = append(header, f.XLabel)
		for _, s := range g {
			header = append(header, s.Label)
		}
		rows := make([][]string, len(g[0].X))
		for i := range g[0].X {
			row := make([]string, 0, len(g)+1)
			row = append(row, trimFloat(g[0].X[i]))
			for _, s := range g {
				row = append(row, trimFloat(s.Y[i]))
			}
			rows[i] = row
		}
		if err := renderColumns(w, header, rows); err != nil {
			return err
		}
	}
	return nil
}

// groupByGrid partitions series into groups sharing an identical x grid.
func groupByGrid(series []Series) [][]Series {
	var groups [][]Series
outer:
	for _, s := range series {
		for gi, g := range groups {
			if sameGrid(g[0].X, s.X) {
				groups[gi] = append(groups[gi], s)
				continue outer
			}
		}
		groups = append(groups, []Series{s})
	}
	return groups
}

func sameGrid(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	return renderColumns(w, t.Header, t.Rows)
}

func renderColumns(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], cell)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
