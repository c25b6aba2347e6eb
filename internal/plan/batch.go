package plan

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bond/internal/core"
)

// groupSize is how many plans a batch worker co-schedules through one lane.
// Each plan keeps its own best-bound-first segment order, so how many of
// them want the same segment at the same time grows with the group. On the
// 16 × 1 000 × 64 uniform shape (every query visits every segment, each in
// its own order) a group of 16 steps 6.3 plans per segment it pulls in, and
// a QueryBatch of 32 on two cores costs 192 µs a query in groups of 1, 163
// in groups of 8 and 147 in groups of 16 — the largest two workers can cut
// from 32 specs. Taking the segment most plans wait on instead of the lowest
// shares no more (6.2) and is no faster. A plan in a group holds only
// query-sized state (its cursor), so what a larger group costs is the
// plans kept pooled: groupSize per lane.
const groupSize = 16

// ExecuteBatch plans and executes specs over one consistent set of
// segments: the specs fan out over a bounded worker pool (one goroutine per
// logical CPU, the caller's being one of them), each worker takes them a
// group at a time — as large as groupSize allows while every worker still
// gets one — and runs the group through executeGroup on one pooled lane.
// Every spec is planned with mom, as New takes it. Results are positionally
// aligned with specs.
// A failing spec aborts the batch; the return is then the lowest failing
// index observed and its error.
func ExecuteBatch(segs []Segment, mom *core.Moments, specs []Spec, pool *Pool) ([]Result, int, error) {
	workers := min(runtime.GOMAXPROCS(0), len(specs))
	b := &batch{
		segs: segs, mom: mom, specs: specs, pool: pool,
		results: make([]Result, len(specs)),
		group:   min(groupSize, (len(specs)+workers-1)/workers),
		failed:  -1,
	}
	b.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer b.wg.Done()
			b.work()
		}()
	}
	b.work()
	b.wg.Wait()
	if b.err != nil {
		return nil, b.failed, b.err
	}
	return b.results, -1, nil
}

// batch is the state the workers of one ExecuteBatch share.
type batch struct {
	segs    []Segment
	mom     *core.Moments
	specs   []Spec
	pool    *Pool
	results []Result
	group   int // specs a worker takes at a time

	next    atomic.Int64 // first spec not yet taken
	aborted atomic.Bool
	wg      sync.WaitGroup

	mu     sync.Mutex
	failed int // lowest failing spec observed, −1 for none
	err    error
}

// work takes groups of specs until none are left or one has failed.
func (b *batch) work() {
	var plans [groupSize]*Plan
	for !b.aborted.Load() {
		lo := int(b.next.Add(int64(b.group))) - b.group
		if lo >= len(b.specs) {
			return
		}
		hi := min(lo+b.group, len(b.specs))
		if i, err := b.runGroup(b.specs[lo:hi], b.results[lo:hi], plans[:0]); err != nil {
			// Keep the lowest failing index so the reported error is
			// deterministic under worker scheduling.
			b.mu.Lock()
			if b.failed < 0 || lo+i < b.failed {
				b.failed, b.err = lo+i, err
			}
			b.mu.Unlock()
			b.aborted.Store(true)
			return
		}
	}
}

// runGroup plans specs into pooled plans (staged in plans), executes them as
// one group and releases them. It returns the index and error of the first
// spec that failed to plan, or the lowest that failed to execute.
func (b *batch) runGroup(specs []Spec, results []Result, plans []*Plan) (int, error) {
	defer func() {
		for _, p := range plans {
			p.Release()
		}
	}()
	for i, spec := range specs {
		p, err := NewReusable(b.segs, b.mom, spec, b.pool)
		if err != nil {
			return i, err
		}
		plans = append(plans, p)
	}
	return executeGroup(plans, results)
}

// executeGroup executes the plans through one lane, co-scheduled so that
// they share their segment reads: it repeatedly takes the lowest segment
// any of them wants next and advances every plan waiting on that segment
// back to back, so the segment's columns come from L3 or memory once and
// from L2 for the rest. Each plan still runs its own steps in its own
// order, against its own κ and skip tests, through the same begin, step and
// finish as Execute — only the interleaving with other plans' steps is new,
// which no result, statistic or EXPLAIN line depends on (a Deadline is
// checked before each of a plan's steps, wherever those fall). results[i]
// receives plan i's answer; the return is the lowest index that failed, or
// −1, and its error.
func executeGroup(plans []*Plan, results []Result) (int, error) {
	ln := plans[0].pool.acquireLane()
	defer plans[0].pool.releaseLane(ln)
	for _, p := range plans {
		p.begin()
	}
	for {
		next := -1
		for _, p := range plans {
			if seg, ok := p.pending(); ok && (next < 0 || seg < next) {
				next = seg
			}
		}
		if next < 0 {
			break
		}
		for _, p := range plans {
			if seg, ok := p.pending(); ok && seg == next {
				p.step(ln)
			}
		}
	}
	failed, ferr := -1, error(nil)
	for i, p := range plans {
		var err error
		if results[i], err = p.finish(); err != nil && failed < 0 {
			failed, ferr = i, err
		}
	}
	return failed, ferr
}
