package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the harness-facing declaration, as checked in.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// TestBenchmarkJSON pins the checked-in declaration to the tables in
// spec.go and to the harness's limits on it.
func TestBenchmarkJSON(t *testing.T) {
	doc, raw := loadBenchmarkJSON(t)
	if string(raw) != emitSpec() {
		t.Error("BENCHMARK.json differs from `go run . -emit-spec`; regenerate it")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", doc.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
}

// smoke runs one workload end to end or traced on a dataset a fiftieth
// of the real one, with one short round, and returns what it emitted.
func smoke(t *testing.T, w workload, seed int64, traced bool) map[string]metricValue {
	t.Helper()
	r := newRun(w, seed, 2, 1, 0.02, t.TempDir())
	defer r.watchdog()()
	values, decls := map[string]float64(nil), endToEnd
	var err error
	if traced {
		decls = perLayer
		values, err = r.tracedRun(t.TempDir())
	} else {
		values, err = r.endToEndRun()
	}
	if err != nil {
		t.Fatalf("%s: phase %s: %v", w.name, r.phase.Load(), err)
	}
	if f := r.t.failed.Load(); f != 0 || r.t.attempted.Load() == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, f, r.t.attempted.Load(), r.t.sample)
	}
	metrics, err := collect(values, decls)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return metrics
}

// TestSmoke runs every workload both ways, side by side, and checks what
// each emitted against the checked-in declaration: every declared name
// once, with its unit, and nothing else. The cheapest workload of each
// kind runs twice with the same seed, to show that the numbers that are
// counts rather than times depend on the seed alone.
func TestSmoke(t *testing.T) {
	doc, _ := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}} // traced → name → unit
	for _, m := range doc.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	repeatable := map[bool][]string{
		false: {"disk_amp"},
		true:  {"wal.bytes_per_vector", "plan.cells_per_query.bond", "durable.write_amp"},
	}
	repeated := map[bool]string{false: "sharded_fanout", true: "mixed_rw"}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				got := smoke(t, w, 7, traced)
				if len(got) != len(declared[traced]) {
					t.Fatalf("emitted %d metrics, declared %d", len(got), len(declared[traced]))
				}
				for name, unit := range declared[traced] {
					m, ok := got[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: emitted %+v (present=%v), declared unit %s", name, m, ok, unit)
					}
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				if w.name != repeated[traced] {
					return
				}
				again := smoke(t, w, 7, traced)
				for _, name := range repeatable[traced] {
					if got[name] != again[name] {
						t.Errorf("%s differs between two runs of seed 7: %v and %v", name, got[name].Value, again[name].Value)
					}
				}
			})
		}
	}
}

// TestSeedDecidesInputs: the same seed generates the same bytes, another
// seed other bytes.
func TestSeedDecidesInputs(t *testing.T) {
	for _, w := range workloads {
		small := w.scaled(0.02)
		a, b, other := small.generate(7).hash(), small.generate(7).hash(), small.generate(8).hash()
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs: %x and %x", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs: %x", w.name, a)
		}
	}
}

// TestSpread pins the quartile arithmetic of -compare to Python's
// statistics.quantiles(xs, n=4), which the harness uses.
func TestSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestRepeatsPerSec pins the reported rate to its definition: each
// distinct request counts once, at the 5th percentile (nearest rank) of
// its repetitions, and a request that never completed is left out and
// reported as unseen.
func TestRepeatsPerSec(t *testing.T) {
	t20 := make([]float64, 20) // 20 repetitions: rank ceil(0.05·20) = 1, the fastest
	for i := range t20 {
		t20[i] = float64(40 - i)
	}
	t21 := append([]float64{1}, t20...) // 21 repetitions: rank 2, past the lone fast one
	r := repeats{t20, t21, nil}
	rate, seen := r.perSec(32)
	if want := float64(2*32) / ((21.0 + 21.0) / 1000); seen != 2 || rate != want {
		t.Errorf("perSec = %v with %d seen, want %v with 2", rate, seen, want)
	}
}
