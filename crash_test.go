package bond

import (
	"math/rand"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
)

// The crash-injection matrix: a fixed mutation history is executed
// against a durable collection on the fault-injecting filesystem, which
// kills the "process" after an exactly chosen number of durability
// events — every byte written to the WAL, every byte of every segment
// file, active checkpoint and manifest, and every metadata operation
// (create, rename, remove, fsync) in between. For every possible crash
// point the surviving disk state is recovered and compared against the
// oracle: the sequence of logical states a plain in-memory collection
// passes through under the same history.
//
// The contract verified at every single crash point:
//
//   - recovery succeeds — no panic, no error, no unopenable store;
//   - the recovered state equals some prefix of the mutation history —
//     a torn WAL record or half-written checkpoint never surfaces as
//     data;
//   - under fsync=always with power-loss semantics, the prefix includes
//     every acknowledged mutation: an op whose call returned cannot be
//     rolled back by the crash (the op in flight at the crash may land
//     either way — it was never acknowledged).

const (
	crashDims    = 3
	crashSegSize = 5
)

type crashOp struct {
	kind  string // add | batch | delete | compact | seal | recluster | checkpoint
	vec   []float64
	batch [][]float64
	id    int
	ratio float64
	k     int
	seed  int64
}

// crashHistory builds a deterministic mutation history that exercises
// every record type, segment seals by overflow, compaction rewrites,
// re-clustering rewrites (one replayed straight from the WAL, one
// captured by a checkpoint, one left in the final log tail), and
// checkpoints at three different log positions.
func crashHistory() []crashOp {
	rng := rand.New(rand.NewSource(42))
	vec := func() []float64 {
		v := make([]float64, crashDims)
		for d := range v {
			v[d] = float64(rng.Intn(1000)) / 1000
		}
		return v
	}
	var ops []crashOp
	for i := 0; i < 7; i++ {
		ops = append(ops, crashOp{kind: "add", vec: vec()})
	}
	ops = append(ops,
		crashOp{kind: "delete", id: 2},
		crashOp{kind: "checkpoint"},
		crashOp{kind: "batch", batch: [][]float64{vec(), vec(), vec()}},
		crashOp{kind: "recluster", k: 0, seed: 7}, // auto-k; drops the id-2 tombstone
		crashOp{kind: "delete", id: 8},
		crashOp{kind: "delete", id: 3},
		crashOp{kind: "compact", ratio: 0.2},
		crashOp{kind: "add", vec: vec()},
		crashOp{kind: "seal"},
		crashOp{kind: "recluster", k: 2, seed: -3}, // explicit k, then checkpointed
		crashOp{kind: "checkpoint"},
		crashOp{kind: "add", vec: vec()},
		crashOp{kind: "batch", batch: [][]float64{vec(), vec()}},
		crashOp{kind: "delete", id: 0},
		crashOp{kind: "compact", ratio: 0},
		crashOp{kind: "recluster", k: 0, seed: 99}, // left in the WAL tail
		crashOp{kind: "checkpoint"},
		crashOp{kind: "add", vec: vec()},
	)
	return ops
}

// applyCrashOp runs one op against a durable collection, returning the
// durability error (the crash surfacing mid-op).
func applyCrashOp(c *Collection, op crashOp) error {
	switch op.kind {
	case "add":
		_, err := c.AddDurable(op.vec)
		return err
	case "batch":
		_, err := c.AddBatchDurable(op.batch)
		return err
	case "delete":
		if op.id < c.Len() {
			_, err := c.TryDeleteDurable(op.id)
			return err
		}
		return nil
	case "compact":
		_, err := c.CompactRatioDurable(op.ratio)
		return err
	case "seal":
		return c.SealActiveDurable()
	case "recluster":
		_, err := c.ReclusterDurable(op.k, op.seed)
		return err
	case "checkpoint":
		return c.Checkpoint()
	}
	panic("unknown op " + op.kind)
}

// oracleDumps runs the history on a plain in-memory collection and
// returns the logical state after every prefix: dumps[i] is the state
// once ops[:i] have applied.
func oracleDumps(t *testing.T, ops []crashOp) []collectionDump {
	t.Helper()
	mirror := NewSegmented(crashDims, crashSegSize)
	dumps := []collectionDump{dumpCollection(mirror)}
	for _, op := range ops {
		// A checkpoint changes no logical state (and an in-memory
		// collection refuses it). Recluster is deterministic: the mirror
		// converges on the exact layout the durable collection (and its WAL
		// replay) produces.
		if op.kind != "checkpoint" {
			if err := applyCrashOp(mirror, op); err != nil {
				t.Fatalf("oracle %s: %v", op.kind, err)
			}
		}
		dumps = append(dumps, dumpCollection(mirror))
	}
	return dumps
}

// runCrashWorkload executes the history on the fault-injecting
// filesystem until the crash trips (or the history completes). It
// returns how many ops were acknowledged and whether the crash surfaced
// mid-op (that op may or may not have reached the disk).
func runCrashWorkload(fs *crashfs.FS, ops []crashOp, policy FsyncPolicy) (acked int, inFlight bool) {
	c, err := OpenDurable("col", DurableOptions{
		FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: policy,
	})
	if err != nil {
		return 0, false // crash during creation: nothing acknowledged
	}
	for _, op := range ops {
		if err := applyCrashOp(c, op); err != nil {
			return acked, true
		}
		acked++
	}
	return acked, false
}

// recoverSurvivor reopens the post-crash disk image; recovery must never
// fail, whatever the crash point.
func recoverSurvivor(t *testing.T, budget int64, survivor iofs.FS, policy FsyncPolicy) *Collection {
	t.Helper()
	c, err := OpenDurable("col", DurableOptions{
		FS: survivor, Dims: crashDims, SegmentSize: crashSegSize, Fsync: policy,
	})
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	return c
}

func runCrashMatrix(t *testing.T, policy FsyncPolicy, mode crashfs.Mode) {
	ops := crashHistory()
	dumps := oracleDumps(t, ops)

	// Dry run with an unlimited budget measures the sweep range and
	// sanity-checks the workload end state.
	dry := crashfs.New(-1)
	acked, inFlight := runCrashWorkload(dry, ops, policy)
	if acked != len(ops) || inFlight {
		t.Fatalf("dry run crashed: acked %d/%d", acked, len(ops))
	}
	clean := recoverSurvivor(t, -1, dry.Survivor(mode), policy)
	cleanGot := dumpCollection(clean)
	clean.Close()
	if policy == FsyncAlways || mode == crashfs.ProcessCrash {
		// Every record was durable (synced, or safe in the page cache):
		// the full history must come back.
		if !sameDump(cleanGot, dumps[len(ops)]) {
			t.Fatalf("clean run final state diverged from oracle")
		}
	} else {
		// fsync=never against power loss: the unsynced WAL tail since the
		// last sync point is legitimately gone, but what remains must be
		// a consistent prefix.
		prefix := false
		for j := len(ops); j >= 0; j-- {
			if sameDump(cleanGot, dumps[j]) {
				prefix = true
				break
			}
		}
		if !prefix {
			t.Fatalf("clean run power-loss state is not a history prefix")
		}
	}
	total := dry.Steps()
	t.Logf("sweeping %d crash points (%s, %v)", total, policy, mode)

	for budget := int64(0); budget < total; budget++ {
		fs := crashfs.New(budget)
		acked, inFlight := runCrashWorkload(fs, ops, policy)
		if !fs.Crashed() {
			t.Fatalf("budget %d: crash did not trip (acked %d)", budget, acked)
		}
		rec := recoverSurvivor(t, budget, fs.Survivor(mode), policy)
		got := dumpCollection(rec)
		rec.Close()

		hi := acked
		if inFlight {
			hi++ // the unacknowledged in-flight op may have committed
		}
		matched := -1
		for j := hi; j >= 0; j-- {
			if sameDump(got, dumps[j]) {
				matched = j
				break
			}
		}
		if matched < 0 {
			t.Fatalf("budget %d (%s, %v): recovered state is not a prefix of the history (acked %d, inFlight %v): got %+v",
				budget, policy, mode, acked, inFlight, got)
		}
		// The no-acknowledged-loss half of the contract: every completed
		// mutation survived. This holds under fsync=always even against
		// power loss, and under any policy against a plain process crash
		// (completed writes live in the page cache).
		if policy == FsyncAlways || mode == crashfs.ProcessCrash {
			if !sameDump(got, dumps[acked]) && !(inFlight && sameDump(got, dumps[acked+1])) {
				t.Fatalf("budget %d (%s, %v): acknowledged write lost: recovered prefix %d, acked %d",
					budget, policy, mode, matched, acked)
			}
		}
	}
}

// TestCrashMatrixFsyncAlwaysPowerLoss is the strongest contract: with
// fsync=always, even a power failure at any byte boundary loses no
// acknowledged write.
func TestCrashMatrixFsyncAlwaysPowerLoss(t *testing.T) {
	runCrashMatrix(t, FsyncAlways, crashfs.PowerLoss)
}

// TestCrashMatrixFsyncAlwaysProcessCrash covers SIGKILL semantics under
// fsync=always.
func TestCrashMatrixFsyncAlwaysProcessCrash(t *testing.T) {
	runCrashMatrix(t, FsyncAlways, crashfs.ProcessCrash)
}

// TestCrashMatrixFsyncNeverProcessCrash: without fsync, a process crash
// still loses nothing (the page cache survives), and recovery is still a
// consistent prefix.
func TestCrashMatrixFsyncNeverProcessCrash(t *testing.T) {
	runCrashMatrix(t, FsyncNever, crashfs.ProcessCrash)
}

// TestCrashMatrixFsyncNeverPowerLoss: without fsync a power loss may
// roll back acknowledged writes — the documented trade-off — but
// recovery must still yield a consistent prefix, never a torn state.
func TestCrashMatrixFsyncNeverPowerLoss(t *testing.T) {
	runCrashMatrix(t, FsyncNever, crashfs.PowerLoss)
}

// TestCrashDuringRecoveryTruncation: a crash can also land while a
// *recovery* truncates a torn WAL tail; the double-crash must still
// recover. This sweeps crash points across a recovery that has work to
// do (torn tail from a first crash).
func TestCrashDuringRecoveryTruncation(t *testing.T) {
	ops := crashHistory()
	dumps := oracleDumps(t, ops)

	// First crash: mid-workload, leaving a torn WAL tail.
	first := crashfs.New(-1)
	runCrashWorkload(first, ops[:6], FsyncNever)
	// Manually tear the live WAL tail by dropping the last 3 bytes.
	base := first.Survivor(crashfs.ProcessCrash)
	names, err := base.ReadDir("col")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if len(name) > 4 && name[:4] == "wal-" {
			info, _ := base.Stat("col/" + name)
			if info.Size > 3 {
				if err := base.Truncate("col/"+name, info.Size-3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Measure recovery's own step count, then sweep crash points inside
	// recovery itself.
	dry := crashfs.NewFrom(base.Clone(false), -1)
	c := recoverSurvivor(t, -1, dry, FsyncNever)
	c.Close()
	total := dry.Steps()
	for budget := int64(0); budget < total; budget++ {
		fs := crashfs.NewFrom(base.Clone(false), budget)
		// Recovery may crash; the crash surfaces as an error.
		if c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncNever}); err == nil {
			c.Close()
		}
		rec := recoverSurvivor(t, budget, fs.Survivor(crashfs.ProcessCrash), FsyncNever)
		got := dumpCollection(rec)
		rec.Close()
		matched := false
		for j := 0; j <= 6; j++ {
			if sameDump(got, dumps[j]) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("recovery-crash budget %d: state not a history prefix: %+v", budget, got)
		}
	}
}
