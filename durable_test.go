package bond

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"bond/internal/core"
	"bond/internal/crashfs"
	"bond/internal/dataset"
	"bond/internal/iofs"
)

// collectionDump is a full logical snapshot of a collection's state —
// what durability must preserve byte-for-byte across crash and
// recovery. Segment boundaries are included because compaction replay
// depends on them.
type collectionDump struct {
	dims, n, live, nseg int
	rows                [][]float64
	deleted             []bool
}

func dumpCollection(c *Collection) collectionDump {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d := collectionDump{
		dims: c.store.Dims(),
		n:    c.store.Len(),
		live: c.store.Live(),
		nseg: c.store.NumSegments(),
	}
	for id := 0; id < d.n; id++ {
		d.rows = append(d.rows, c.store.Row(id))
		d.deleted = append(d.deleted, c.store.IsDeleted(id))
	}
	return d
}

func sameDump(a, b collectionDump) bool { return reflect.DeepEqual(a, b) }

func reopenDurable(t *testing.T, fs iofs.FS, dir string, policy FsyncPolicy) *Collection {
	t.Helper()
	c, err := OpenDurable(dir, DurableOptions{FS: fs, Fsync: policy})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	return c
}

// TestOpenDurableLifecycle drives the full durable lifecycle on the
// in-memory filesystem: create, mutate, close, reopen, checkpoint,
// mutate, reopen — asserting bit-identical state at every generation.
func TestOpenDurableLifecycle(t *testing.T) {
	fs := crashfs.NewMemFS()
	dir := "col.bond"
	c, err := OpenDurable(dir, DurableOptions{FS: fs, Dims: 4, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WALStats(); !ok {
		t.Fatal("OpenDurable produced a non-durable collection")
	}
	vectors := dataset.CorelLike(30, 4, 11)
	for _, v := range vectors[:20] {
		if _, err := c.AddDurable(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddBatchDurable(vectors[20:]); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.TryDeleteDurable(3); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	want := dumpCollection(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDurable(vectors[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Close: %v", err)
	}

	c2 := reopenDurable(t, fs, dir, FsyncAlways)
	if got := dumpCollection(c2); !sameDump(got, want) {
		t.Fatalf("replay-only reopen diverged:\n got %+v\nwant %+v", got, want)
	}

	// Checkpoint, keep mutating into the fresh WAL, reopen again.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ds, ok := c2.WALStats()
	if !ok || ds.WALRecords != 0 || ds.Checkpoints != 1 {
		t.Fatalf("post-checkpoint WAL stats: %+v ok=%v", ds, ok)
	}
	if _, err := c2.CompactRatioDurable(0); err != nil {
		t.Fatal(err)
	}
	if err := c2.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddDurable(vectors[1]); err != nil {
		t.Fatal(err)
	}
	want2 := dumpCollection(c2)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := reopenDurable(t, fs, dir, FsyncAlways)
	defer c3.Close()
	if got := dumpCollection(c3); !sameDump(got, want2) {
		t.Fatalf("checkpoint+replay reopen diverged")
	}
	// The stats snapshot must expose the durability block.
	if st := c3.StatsSnapshot(); st.Durability == nil || st.Durability.Fsync != "always" {
		t.Fatalf("stats missing durability block: %+v", st.Durability)
	}
}

func TestOpenDurableRequiresDimsToCreate(t *testing.T) {
	fs := crashfs.NewMemFS()
	if _, err := OpenDurable("missing", DurableOptions{FS: fs}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open missing without dims: %v", err)
	}
}

// TestDurableLifecycleProperty is the randomized lifecycle property
// test: a random interleaving of Add/AddBatch/Delete/Compact/Seal/
// Checkpoint/Close+Reopen (see lifecycleProperty). Run under -race in CI.
func TestDurableLifecycleProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lifecycleProperty(t, seed, 400, lifecycleMix{add: 45, batch: 15, del: 15, compact: 10, seal: 5, checkpoint: 5, reopen: 5})
		})
	}
}

// lifecycleMix weighs the operations lifecycleProperty draws.
type lifecycleMix struct {
	add, batch, del, compact, seal, recluster, checkpoint, reopen int
}

// lifecycleProperty runs ops random operations, drawn by mix, against a
// durable collection on the in-memory filesystem and an in-memory mirror
// receiving the same mutations (recluster is deterministic, so the mirror
// reproduces its layout exactly), while concurrent Query and QueryBatch
// calls race every mutation. After every recluster the two agree, after
// every reopen the recovered state equals the one closed, and at the end
// the collection equals the mirror bit for bit and answers a query on
// every strategy as the scan of its rows does, or with ErrNoCandidates
// when every row is deleted.
func lifecycleProperty(t *testing.T, seed int64, ops int, mix lifecycleMix) {
	const dims, segSize = 5, 16
	rng := rand.New(rand.NewSource(seed))
	fs := crashfs.NewMemFS()
	c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: dims, SegmentSize: segSize, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mirror := NewSegmented(dims, segSize)

	var wg sync.WaitGroup
	// A reader accepts ErrNoCandidates: the collection starts empty, and a
	// delete may empty it again. The final checks below hold the answer
	// whether or not a row is left.
	answered := func(err error) bool { return err == nil || errors.Is(err, core.ErrNoCandidates) }
	stopQueries := func() {}
	startQueries := func() {
		stop := make(chan struct{})
		q1 := randVector(rng, dims) // drawn before the goroutine: rng is not shared
		q2 := randVector(rng, dims)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Query(QuerySpec{Query: q1, K: 3, Criterion: Hq, Strategy: StrategyExact}); !answered(err) {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if _, err := c.QueryBatch([]QuerySpec{
					{Query: q1, K: 2, Criterion: Hq},
					{Query: q2, K: 3, Criterion: Hq},
				}); !answered(err) {
					t.Errorf("concurrent query batch: %v", err)
					return
				}
			}
		}()
		var once sync.Once
		stopQueries = func() { once.Do(func() { close(stop); wg.Wait() }) }
	}
	startQueries()
	// On a failure too, the readers stop before the collection closes.
	defer func() { stopQueries(); c.Close() }()

	apply := func(op func(col *Collection) error) {
		if err := op(c); err != nil {
			t.Fatalf("durable op: %v", err)
		}
		if err := op(mirror); err != nil {
			t.Fatalf("mirror op: %v", err)
		}
	}
	for i := 0; i < ops; i++ {
		// pick(w) takes the next w of r's range; the switch stops at the
		// first operation whose share r falls in.
		r := rng.Intn(mix.add + mix.batch + mix.del + mix.compact + mix.seal + mix.recluster + mix.checkpoint + mix.reopen)
		pick := func(w int) bool {
			r -= w
			return r < 0
		}
		switch {
		case pick(mix.add):
			v := randVector(rng, dims)
			apply(func(col *Collection) error { _, e := col.AddDurable(v); return e })
		case pick(mix.batch):
			batch := make([][]float64, 1+rng.Intn(6))
			for j := range batch {
				batch[j] = randVector(rng, dims)
			}
			apply(func(col *Collection) error { _, e := col.AddBatchDurable(batch); return e })
		case pick(mix.del):
			if n := c.Len(); n > 0 {
				id := rng.Intn(n)
				apply(func(col *Collection) error { _, e := col.TryDeleteDurable(id); return e })
			}
		case pick(mix.compact):
			ratio := rng.Float64() * 0.5
			apply(func(col *Collection) error { _, e := col.CompactRatioDurable(ratio); return e })
		case pick(mix.seal):
			apply(func(col *Collection) error { return col.SealActiveDurable() })
		case pick(mix.recluster):
			// k auto or explicit, random seed: both sides must converge on
			// the identical layout.
			k := 0
			if rng.Float64() < 0.3 {
				k = 1 + rng.Intn(4)
			}
			s := rng.Int63()
			apply(func(col *Collection) error { _, e := col.ReclusterDurable(k, s); return e })
			if got, want := dumpCollection(c), dumpCollection(mirror); !sameDump(got, want) {
				t.Fatalf("op %d: recluster diverged from mirror", i)
			}
		case pick(mix.checkpoint):
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		default:
			stopQueries()
			want := dumpCollection(c)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c = reopenDurable(t, fs, "col", FsyncNever)
			if got := dumpCollection(c); !sameDump(got, want) {
				t.Fatalf("op %d: reopen diverged from pre-close state", i)
			}
			startQueries()
		}
	}
	stopQueries()

	got, want := dumpCollection(c), dumpCollection(mirror)
	if !sameDump(got, want) {
		t.Fatalf("final state diverged from in-memory mirror:\n got %+v\nwant %+v", got, want)
	}
	if c.Live() == 0 {
		if _, err := c.Query(QuerySpec{Query: randVector(rng, dims), K: 3, Criterion: Hq}); !errors.Is(err, core.ErrNoCandidates) {
			t.Fatalf("emptied collection: query error %v, want ErrNoCandidates", err)
		}
		return
	}
	assertAnswers(t, "final", c, got.rows, got.deleted, QuerySpec{Query: randVector(rng, dims), K: 3, Criterion: Hq})
}

func randVector(rng *rand.Rand, dims int) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = rng.Float64()
	}
	return v
}
