// Command benchmark is this repository's end-to-end serving benchmark.
//
// One invocation runs one workload with one seed. It starts real
// internal/server servers (and, for sharded_fanout, an internal/shard
// coordinator over two of them) in-process on loopback ports, drives
// them over HTTP, checks the answers against the internal/seqscan oracle
// and prints every metric by name with its unit; the last line of
// standard output is one JSON object for the harness. Without -trace the
// metrics are the client-observed end-to-end ones; with -trace 1 they
// are the per-layer ones, measured by timing calls into each package
// from outside, plus a span file under -out.
//
// README.md documents workloads, metrics and the noise procedure;
// BENCHMARK.json at the repo root is the harness-facing declaration of
// the same names (see spec.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// errOracle marks a run whose answers disagreed with the oracle.
var errOracle = errors.New("answers disagree with the sequential-scan oracle")

// result is the harness-facing last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -record appends it: the result plus what
// produced it, so -compare can group runs.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() { os.Exit(realMain()) }

// realMain is main with an exit code, so that deferred clean-up (the data
// root above all) runs on every path out.
func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", runSeconds, "measuring budget in seconds; phase lengths are fixed shares of it")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		scale   = flag.Float64("scale", 1, "dataset scale; below 1 is for smoke tests only")
		tmp     = flag.String("tmp", "", "directory to create the data root under (default: the system temp dir)")
		out     = flag.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
		rec     = flag.String("record", "", "append this run's result to a JSON-lines file, for -compare")
		compare = flag.Bool("compare", false, "compare two -record files given as arguments; exit 1 on a breach")
		spec    = flag.Bool("emit-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *spec:
		fmt.Print(emitSpec())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return complain("usage: -compare A.jsonl B.jsonl")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	w, err := findWorkload(*name)
	if err != nil {
		return complain("%v (want one of %s)", err, workloadNames())
	}
	if *seconds <= 0 || *scale <= 0 {
		return complain("-seconds and -scale must be positive")
	}

	root, err := os.MkdirTemp(*tmp, "bondbench-")
	if err != nil {
		return complain("data root: %v", err)
	}
	defer removeAll(root)
	r := newRun(w, *seed, *seconds, defaultRounds, *scale, root)
	defer r.watchdog()()

	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d scale=%g n=%d dims=%d segment_size=%d criterion=%s strategy=%s shards=%d\n",
		w.name, *seed, *seconds, *trace, *scale, r.w.n, r.w.dims, r.w.segSize, r.w.criterion, servedStrategy, r.w.shards)

	var (
		values map[string]float64
		decls  = endToEnd
	)
	if *trace != 0 {
		decls = perLayer
		values, err = r.tracedRun(*out)
	} else {
		values, err = r.endToEndRun()
	}
	for _, s := range r.t.sample {
		fmt.Fprintln(os.Stderr, "failed operation:", s)
	}
	if err != nil && !errors.Is(err, errOracle) {
		return complain("workload %s: phase %s: %v", w.name, r.phase.Load(), err)
	}
	res := result{
		Correct:   err == nil && r.t.failed.Load() == 0,
		Attempted: r.t.attempted.Load(),
		Failed:    r.t.failed.Load(),
	}
	var cerr error
	if res.Metrics, cerr = collect(values, decls); cerr != nil {
		return complain("workload %s: %v", w.name, cerr)
	}
	for _, d := range decls {
		fmt.Printf("%-36s %16.6f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Printf("attempted=%d failed=%d\n", res.Attempted, res.Failed)
	if *rec != "" {
		if err := appendRecord(*rec, record{w.name, *seed, *trace != 0, res}); err != nil {
			return complain("record: %v", err)
		}
	}
	fmt.Println(string(mustJSON(res)))
	if errors.Is(err, errOracle) {
		return 1
	}
	return 0
}

// newRun describes one invocation; scale below 1 shrinks the dataset and
// lifts the sample-count floors, for smoke tests.
func newRun(w workload, seed int64, seconds float64, rounds int, scale float64, tmp string) *run {
	r := &run{
		w:       w.scaled(scale),
		seed:    seed,
		seconds: seconds,
		rounds:  rounds,
		full:    scale >= 1,
		clients: min(2, runtime.NumCPU()),
		tmp:     tmp,
	}
	r.setPhase("start")
	return r
}

// collect pairs measured values with their declarations, insisting on
// exactly the declared names and on finite numbers: a metric that was
// not measured must fail the run, not read as zero.
func collect(values map[string]float64, decls []metricDecl) (map[string]metricValue, error) {
	if len(values) != len(decls) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(values), len(decls))
	}
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out, nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// complain reports a failed run on standard error and returns the exit
// code for one: no result line was printed.
func complain(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}

// watchdog bounds the run: past the deadline, or on SIGINT/SIGTERM, it
// names the phase that was running, removes the data root and exits
// non-zero without a result — a hang must not look like a slow run. The
// allowance is generous next to a normal run (set-up thrice plus the
// measuring budget) and well inside the harness's per-run limit.
func (r *run) watchdog() (stop func()) {
	limit := time.Duration((60 + 4*r.seconds) * float64(time.Second))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		why := ""
		select {
		case <-done:
			return
		case s := <-sig:
			why = s.String()
		case <-time.After(limit):
			why = fmt.Sprintf("deadline of %v exceeded", limit)
		}
		fmt.Fprintf(os.Stderr, "benchmark: workload %s: %s in phase %s\n", r.w.name, why, r.phase.Load())
		removeAll(r.tmp)
		os.Exit(3)
	}()
	return func() { signal.Stop(sig); close(done) }
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(mustJSON(rec), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
