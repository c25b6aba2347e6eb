package bond

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/iofs"
	"bond/internal/wal"
)

// The replication suite reuses the crash-matrix machinery: the same
// deterministic mutation history, the same oracle dumps, the same
// byte-budget crash filesystem — but now the subject is a follower
// tailing a leader's WAL stream. The contract under test:
//
//   - a follower in lockstep with the leader is byte-identical to it —
//     same segment files, same manifest (modulo the opaque planner
//     stats), same WAL bytes, same stream position;
//   - a follower crashed at ANY byte boundary of its apply or bootstrap
//     path recovers to a prefix of the leader's history and converges
//     back to identical state when tailing resumes;
//   - a promoted follower is a full leader: writes applied after
//     promotion survive crashes under the same matrix contract.

// mustOpenDurable opens (or creates) a durable collection or fails the
// test.
func mustOpenDurable(t *testing.T, fs iofs.FS, dir string, policy FsyncPolicy) *Collection {
	t.Helper()
	c, err := OpenDurable(dir, DurableOptions{
		FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: policy,
	})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return c
}

// tailReplica pumps replication chunks from leader to follower until
// the follower is caught up with the leader's live position. It mirrors
// the serving layer's sync loop: apply, checkpoint on rotation, double
// the chunk size when a full chunk carries no complete frame.
func tailReplica(leader, follower *Collection) error {
	max := 0
	for {
		pos, err := follower.ReplPosition()
		if err != nil {
			return err
		}
		ch, err := leader.ReplChunk(pos.Seq, pos.Off, max)
		if err != nil {
			return err
		}
		if err := follower.ApplyReplChunk(ch); err != nil {
			return err
		}
		after, err := follower.ReplPosition()
		if err != nil {
			return err
		}
		switch {
		case ch.Rotated && after == ch.End():
			// Generation fully applied: mirror the leader's rotation.
			if err := follower.Checkpoint(); err != nil {
				return err
			}
			max = 0
		case len(ch.Data) == 0 && !ch.Rotated:
			return nil // caught up with the live position
		case len(ch.Data) > 0 && after == pos:
			// A full chunk with no complete frame: need a bigger window.
			if max == 0 {
				max = 2 * replChunkDefault
			} else {
				max *= 2
			}
			if max > replChunkMax {
				return errors.New("tailReplica: no progress at max chunk size")
			}
		default:
			max = 0
		}
	}
}

// tailOrBootstrap tails the leader, re-bootstrapping the follower from
// a fresh snapshot when its position was checkpoint-deleted on the
// leader. Returns the (possibly replaced) follower.
func tailOrBootstrap(t *testing.T, fs iofs.FS, dir string, leader, follower *Collection, policy FsyncPolicy) *Collection {
	t.Helper()
	for {
		err := tailReplica(leader, follower)
		if err == nil {
			return follower
		}
		if !errors.Is(err, ErrReplGone) {
			t.Fatalf("tail: %v", err)
		}
		snap, serr := leader.ReplSnapshot()
		if serr != nil {
			t.Fatalf("snapshot: %v", serr)
		}
		follower.Close()
		follower, err = BootstrapReplica(dir, snap, DurableOptions{
			FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: policy,
		})
		if err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
}

// assertReplicaIdentical compares two durable directories byte for
// byte: identical file sets, identical contents — except MANIFEST,
// which is compared field-by-field modulo the opaque planner-stats
// block (heuristic cost-model state, explicitly outside the replication
// contract).
func assertReplicaIdentical(t *testing.T, lfs iofs.FS, ldir string, ffs iofs.FS, fdir string) {
	t.Helper()
	lnames, err := lfs.ReadDir(ldir)
	if err != nil {
		t.Fatalf("readdir %s: %v", ldir, err)
	}
	fnames, err := ffs.ReadDir(fdir)
	if err != nil {
		t.Fatalf("readdir %s: %v", fdir, err)
	}
	sort.Strings(lnames)
	sort.Strings(fnames)
	if !reflect.DeepEqual(lnames, fnames) {
		t.Fatalf("file sets differ:\n  leader   %v\n  follower %v", lnames, fnames)
	}
	for _, name := range lnames {
		ldata, err := lfs.ReadFile(ldir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		fdata, err := ffs.ReadFile(fdir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ldata, fdata) {
			t.Fatalf("file %s differs between leader and follower (%d vs %d bytes)", name, len(ldata), len(fdata))
		}
	}
}

// --- Unit tests -----------------------------------------------------------

// TestReplTailLockstep drives the full crash history on a leader with a
// follower tailing after every op: the follower must track every state
// and end byte-identical.
func TestReplTailLockstep(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	follower := mustOpenDurable(t, fs, "replica.bond", FsyncNever)
	defer leader.Close()
	defer follower.Close()

	ops := crashHistory()
	dumps := oracleDumps(t, ops)
	for i, op := range ops {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := tailReplica(leader, follower); err != nil {
			t.Fatalf("tail after op %d: %v", i, err)
		}
		if got := dumpCollection(follower); !sameDump(got, dumps[i+1]) {
			t.Fatalf("follower diverged after op %d (%s)", i, op.kind)
		}
		// The follower answers from a planner list memoized across the
		// records that leave its segment list alone, and must answer as the
		// leader does after every one of them.
		spec := QuerySpec{Query: ops[0].vec, K: 100, Criterion: Eq, Strategy: StrategyBOND} // every live row
		want, err := leader.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Query(spec)
		if err != nil || !assertSameAnswer(t, fmt.Sprintf("follower after op %d (%s)", i, op.kind), got.Results, want.Results) {
			t.Fatalf("follower query after op %d: %v", i, err)
		}
		lp, _ := leader.ReplPosition()
		fp, _ := follower.ReplPosition()
		if lp != fp {
			t.Fatalf("positions diverged after op %d: leader %v, follower %v", i, lp, fp)
		}
	}
	assertReplicaIdentical(t, fs, "leader.bond", fs, "replica.bond")
}

// TestReplSnapshotBootstrap joins a follower late — after the leader
// already checkpointed its early history away — via snapshot bootstrap,
// then tails the rest.
func TestReplSnapshotBootstrap(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	defer leader.Close()

	ops := crashHistory()
	dumps := oracleDumps(t, ops)
	half := len(ops) / 2
	for _, op := range ops[:half] {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := leader.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := BootstrapReplica("replica.bond", snap, DurableOptions{
		FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := dumpCollection(follower); !sameDump(got, dumps[half]) {
		t.Fatalf("bootstrapped follower state diverged from oracle at op %d", half)
	}
	for i, op := range ops[half:] {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatalf("op %d: %v", half+i, err)
		}
		if err := tailReplica(leader, follower); err != nil {
			t.Fatalf("tail after op %d: %v", half+i, err)
		}
	}
	if got := dumpCollection(follower); !sameDump(got, dumps[len(ops)]) {
		t.Fatal("follower final state diverged from oracle")
	}
	assertReplicaIdentical(t, fs, "leader.bond", fs, "replica.bond")
}

// TestReplStaleFollowerGone: a follower parked before a leader
// checkpoint finds its position garbage-collected (ErrReplGone) and
// recovers by re-bootstrapping.
func TestReplStaleFollowerGone(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	follower := mustOpenDurable(t, fs, "replica.bond", FsyncNever)
	defer leader.Close()

	if _, err := leader.AddDurable([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The follower does NOT tail; the leader checkpoints the record away.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pos, _ := follower.ReplPosition()
	if _, err := leader.ReplChunk(pos.Seq, pos.Off, 0); !errors.Is(err, ErrReplGone) {
		t.Fatalf("stale position: got %v, want ErrReplGone", err)
	}
	follower = tailOrBootstrap(t, fs, "replica.bond", leader, follower, FsyncNever)
	defer follower.Close()
	if got, want := dumpCollection(follower), dumpCollection(leader); !sameDump(got, want) {
		t.Fatal("re-bootstrapped follower diverged")
	}
	assertReplicaIdentical(t, fs, "leader.bond", fs, "replica.bond")
}

// TestReplChunkFencing pins the stream's failure modes: positions the
// leader never produced are diverged, deleted generations are gone, and
// a drained follower at a rotation boundary is told to rotate, not to
// re-bootstrap.
func TestReplChunkFencing(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	defer leader.Close()
	if _, err := leader.AddDurable([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pos, _ := leader.ReplPosition()

	if _, err := leader.ReplChunk(pos.Seq, 3, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("offset inside header: got %v, want ErrReplDiverged", err)
	}
	if _, err := leader.ReplChunk(pos.Seq+1, wal.HeaderLen, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("future generation: got %v, want ErrReplDiverged", err)
	}
	if _, err := leader.ReplChunk(pos.Seq, pos.Off+1, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("offset past leader: got %v, want ErrReplDiverged", err)
	}
	ch, err := leader.ReplChunk(pos.Seq, pos.Off, 0)
	if err != nil || len(ch.Data) != 0 || ch.Rotated {
		t.Fatalf("live position: got %+v, %v; want empty unrotated chunk", ch, err)
	}

	// Rotate and drain: the old generation must answer Rotated at its
	// end even after its file is checkpoint-deleted.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ch, err = leader.ReplChunk(pos.Seq, pos.Off, 0)
	if err != nil || !ch.Rotated || len(ch.Data) != 0 {
		t.Fatalf("drained rotated generation: got %+v, %v; want Rotated", ch, err)
	}
	if _, err := leader.ReplChunk(pos.Seq, wal.HeaderLen, 0); !errors.Is(err, ErrReplGone) {
		t.Fatalf("undrained deleted generation: got %v, want ErrReplGone", err)
	}
}

// TestReplApplyIdempotentAndGap: overlapping chunks re-apply cleanly
// (at-least-once delivery), gapped chunks fence.
func TestReplApplyIdempotentAndGap(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	follower := mustOpenDurable(t, fs, "replica.bond", FsyncNever)
	defer leader.Close()
	defer follower.Close()

	for i := 0; i < 3; i++ {
		if _, err := leader.AddDurable([]float64{float64(i), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	start, _ := follower.ReplPosition()
	ch, err := leader.ReplChunk(start.Seq, start.Off, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplChunk(ch); err != nil {
		t.Fatal(err)
	}
	// Re-applying the same chunk is a no-op, not a duplicate.
	if err := follower.ApplyReplChunk(ch); err != nil {
		t.Fatalf("idempotent re-apply: %v", err)
	}
	if follower.Len() != 3 {
		t.Fatalf("duplicate application: len %d, want 3", follower.Len())
	}
	// A chunk that skips bytes is a gap — fenced, not patched.
	gap := ch
	gap.From = ch.End().Off + 8
	gap.Data = []byte{1, 2, 3}
	if err := follower.ApplyReplChunk(gap); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("gap: got %v, want ErrReplDiverged", err)
	}
	// A chunk for the wrong generation is fenced too.
	wrong := ch
	wrong.Seq = ch.Seq + 4
	if err := follower.ApplyReplChunk(wrong); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("wrong generation: got %v, want ErrReplDiverged", err)
	}
}

// TestReplApplyCorruptFrame: corrupted stream bytes fence the replica
// (fail closed) instead of applying garbage.
func TestReplApplyCorruptFrame(t *testing.T) {
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	follower := mustOpenDurable(t, fs, "replica.bond", FsyncNever)
	defer leader.Close()
	defer follower.Close()

	if _, err := leader.AddDurable([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pos, _ := follower.ReplPosition()
	ch, err := leader.ReplChunk(pos.Seq, pos.Off, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch.Data[len(ch.Data)-1] ^= 0xFF // flip a payload byte: CRC mismatch
	if err := follower.ApplyReplChunk(ch); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("corrupt frame: got %v, want ErrReplDiverged", err)
	}
	if follower.Len() != 0 {
		t.Fatalf("corrupt frame applied: len %d", follower.Len())
	}
}

// --- Crash sweeps ---------------------------------------------------------

// runReplFollowerCrashSweep is the follower half of the crash matrix:
// the leader executes the history on a plain MemFS while a follower
// tails in lockstep on the fault-injecting filesystem. Every byte the
// follower writes — WAL mirror appends, checkpoint files, bootstrap
// staging — is a potential crash point; at each one the follower must
// recover to a prefix of the leader's history and then converge back to
// the leader's exact final state.
func runReplFollowerCrashSweep(t *testing.T, policy FsyncPolicy, mode crashfs.Mode) {
	ops := crashHistory()
	dumps := oracleDumps(t, ops)

	run := func(ffs *crashfs.FS) (leaderFS *crashfs.MemFS, leaderOps int, crashed bool) {
		lfs := crashfs.NewMemFS()
		leader := mustOpenDurable(t, lfs, "leader.bond", FsyncNever)
		defer leader.Close()
		follower, err := OpenDurable("col", DurableOptions{
			FS: ffs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: policy,
		})
		if err != nil {
			return lfs, 0, true // crashed during creation
		}
		for i, op := range ops {
			if err := applyCrashOp(leader, op); err != nil {
				t.Fatalf("leader op %d failed: %v", i, err)
			}
			leaderOps = i + 1
			if err := tailReplica(leader, follower); err != nil {
				return lfs, leaderOps, true
			}
		}
		return lfs, leaderOps, false
	}

	dry := crashfs.New(-1)
	_, leaderOps, crashed := run(dry)
	if crashed || leaderOps != len(ops) {
		t.Fatalf("dry run crashed at leader op %d", leaderOps)
	}
	total := dry.Steps()
	t.Logf("sweeping %d follower crash points (%s, %v)", total, policy, mode)

	for budget := int64(0); budget < total; budget++ {
		ffs := crashfs.New(budget)
		_, leaderOps, _ := run(ffs)
		if !ffs.Crashed() {
			t.Fatalf("budget %d: crash did not trip", budget)
		}
		survivor := ffs.Survivor(mode)
		rec := recoverSurvivor(t, budget, survivor, policy)
		got := dumpCollection(rec)
		matched := -1
		for j := leaderOps; j >= 0; j-- {
			if sameDump(got, dumps[j]) {
				matched = j
				break
			}
		}
		if matched < 0 {
			t.Fatalf("budget %d (%s, %v): recovered follower is not a prefix of the leader history (leader at op %d)",
				budget, policy, mode, leaderOps)
		}
		rec.Close()
	}
}

func TestCrashMatrixReplFollowerFsyncAlwaysPowerLoss(t *testing.T) {
	runReplFollowerCrashSweep(t, FsyncAlways, crashfs.PowerLoss)
}

func TestCrashMatrixReplFollowerFsyncNeverProcessCrash(t *testing.T) {
	runReplFollowerCrashSweep(t, FsyncNever, crashfs.ProcessCrash)
}

// TestCrashMatrixReplFollowerResume: crash the follower at a sampled
// set of points, recover, and resume tailing (re-bootstrapping when the
// leader checkpointed past the follower) — every resume must converge
// to the leader's exact final state, byte for byte.
func TestCrashMatrixReplFollowerResume(t *testing.T) {
	ops := crashHistory()
	dumps := oracleDumps(t, ops)

	// Measure the sweep range once.
	dryL := crashfs.NewMemFS()
	leader := mustOpenDurable(t, dryL, "leader.bond", FsyncNever)
	dry := crashfs.New(-1)
	follower, err := OpenDurable("col", DurableOptions{
		FS: dry, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatal(err)
		}
		if err := tailReplica(leader, follower); err != nil {
			t.Fatal(err)
		}
	}
	follower.Close()
	leader.Close()
	total := dry.Steps()

	// Resuming replays the full leader history per crash point; sample
	// every 7th point to keep the sweep affordable (the full-density
	// prefix contract is covered by the sweeps above).
	for budget := int64(0); budget < total; budget += 7 {
		lfs := crashfs.NewMemFS()
		leader := mustOpenDurable(t, lfs, "leader.bond", FsyncNever)
		ffs := crashfs.New(budget)
		fol, err := OpenDurable("col", DurableOptions{
			FS: ffs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
		})
		crashed := err != nil
		leaderOps := 0
		if !crashed {
			for i, op := range ops {
				if err := applyCrashOp(leader, op); err != nil {
					t.Fatal(err)
				}
				leaderOps = i + 1
				if err := tailReplica(leader, fol); err != nil {
					crashed = true
					break
				}
			}
		}
		if !crashed {
			t.Fatalf("budget %d: crash did not trip", budget)
		}
		// Recover on the survivor and finish the history.
		survivor := ffs.Survivor(crashfs.PowerLoss)
		rec := recoverSurvivor(t, budget, survivor, FsyncAlways)
		for i := leaderOps; i < len(ops); i++ {
			if err := applyCrashOp(leader, ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		rec = tailOrBootstrap(t, survivor, "col", leader, rec, FsyncAlways)
		if got := dumpCollection(rec); !sameDump(got, dumps[len(ops)]) {
			t.Fatalf("budget %d: resumed follower did not converge to the leader's final state", budget)
		}
		lp, _ := leader.ReplPosition()
		fp, _ := rec.ReplPosition()
		if lp != fp {
			t.Fatalf("budget %d: resumed positions diverged: leader %v, follower %v", budget, lp, fp)
		}
		// A crash-resumed follower may trail the leader by one checkpoint
		// generation in its local files (same logical state, same stream
		// position, older manifest). One more rotation re-aligns the
		// checkpoint histories; after it the directories must be
		// byte-identical.
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rec = tailOrBootstrap(t, survivor, "col", leader, rec, FsyncAlways)
		assertReplicaIdentical(t, lfs, "leader.bond", survivor, "col")
		rec.Close()
		leader.Close()
	}
}

// TestCrashMatrixReplBootstrap sweeps every byte of a snapshot install
// over a stale follower: at any crash point the follower must hold its
// old state, nothing, or the complete new state — never a torn install
// — and re-running the bootstrap must converge.
func TestCrashMatrixReplBootstrap(t *testing.T) {
	lfs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, lfs, "leader.bond", FsyncNever)
	defer leader.Close()
	ops := crashHistory()
	for _, op := range ops {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := leader.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	leaderDump := dumpCollection(leader)

	// The stale follower: an unrelated short history of its own.
	staleFS := crashfs.NewMemFS()
	stale := mustOpenDurable(t, staleFS, "col", FsyncNever)
	for i := 0; i < 4; i++ {
		if _, err := stale.AddDurable([]float64{float64(i), 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	staleDump := dumpCollection(stale)
	stale.Close()
	emptyDump := dumpCollection(NewSegmented(crashDims, crashSegSize))

	opts := func(fs iofs.FS) DurableOptions {
		return DurableOptions{FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways}
	}
	dry := crashfs.NewFrom(staleFS.Clone(false), -1)
	c, err := BootstrapReplica("col", snap, opts(dry))
	if err != nil {
		t.Fatalf("dry bootstrap: %v", err)
	}
	if got := dumpCollection(c); !sameDump(got, leaderDump) {
		t.Fatal("dry bootstrap diverged from leader")
	}
	c.Close()
	total := dry.Steps()
	t.Logf("sweeping %d bootstrap crash points", total)

	for budget := int64(0); budget < total; budget++ {
		ffs := crashfs.NewFrom(staleFS.Clone(false), budget)
		if c, err := BootstrapReplica("col", snap, opts(ffs)); err == nil {
			c.Close()
		}
		if !ffs.Crashed() {
			t.Fatalf("budget %d: crash did not trip", budget)
		}
		survivor := ffs.Survivor(crashfs.PowerLoss)
		rec := recoverSurvivor(t, budget, survivor, FsyncAlways)
		got := dumpCollection(rec)
		rec.Close()
		if !sameDump(got, staleDump) && !sameDump(got, emptyDump) && !sameDump(got, leaderDump) {
			t.Fatalf("budget %d: torn bootstrap surfaced as data: %+v", budget, got)
		}
		// Re-running the install on the survivor must converge.
		redo, err := BootstrapReplica("col", snap, opts(survivor))
		if err != nil {
			t.Fatalf("budget %d: re-bootstrap failed: %v", budget, err)
		}
		if got := dumpCollection(redo); !sameDump(got, leaderDump) {
			t.Fatalf("budget %d: re-bootstrap diverged from leader", budget)
		}
		redo.Close()
	}
}

// TestCrashMatrixReplPromote: a caught-up follower is promoted and
// starts taking writes of its own; the crash matrix must hold across
// the post-promotion writes — promotion hands over the full durability
// contract, not a weakened one.
func TestCrashMatrixReplPromote(t *testing.T) {
	ops := crashHistory()
	promoOps := []crashOp{
		{kind: "add", vec: []float64{0.9, 0.1, 0.5}},
		{kind: "batch", batch: [][]float64{{0.2, 0.3, 0.4}, {0.5, 0.6, 0.7}}},
		{kind: "delete", id: 1},
		{kind: "checkpoint"},
		{kind: "add", vec: []float64{0.11, 0.22, 0.33}},
	}
	dumps := oracleDumps(t, append(append([]crashOp{}, ops...), promoOps...))

	// Build the caught-up follower state once on a MemFS.
	fs := crashfs.NewMemFS()
	leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
	follower := mustOpenDurable(t, fs, "col", FsyncAlways)
	for _, op := range ops {
		if err := applyCrashOp(leader, op); err != nil {
			t.Fatal(err)
		}
		if err := tailReplica(leader, follower); err != nil {
			t.Fatal(err)
		}
	}
	follower.Close()
	leader.Close()

	// Promotion is a serving-layer decision; at the storage layer the
	// promoted follower simply starts writing. Sweep crash points across
	// those first writes.
	dry := crashfs.NewFrom(fs.Clone(false), -1)
	promoted := recoverSurvivor(t, -1, dry, FsyncAlways)
	for _, op := range promoOps {
		if err := applyCrashOp(promoted, op); err != nil {
			t.Fatalf("dry promoted op: %v", err)
		}
	}
	if got := dumpCollection(promoted); !sameDump(got, dumps[len(ops)+len(promoOps)]) {
		t.Fatal("dry promoted run diverged from oracle")
	}
	// Steps() before Close: the sweep does not close, so the budget range
	// must cover exactly open + mutations.
	total := dry.Steps()
	promoted.Close()
	t.Logf("sweeping %d post-promotion crash points", total)

	for budget := int64(0); budget < total; budget++ {
		ffs := crashfs.NewFrom(fs.Clone(false), budget)
		acked := len(ops)
		inFlight := false
		if c, err := OpenDurable("col", DurableOptions{
			FS: ffs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncAlways,
		}); err == nil {
			for _, op := range promoOps {
				if err := applyCrashOp(c, op); err != nil {
					inFlight = true
					break
				}
				acked++
			}
		}
		if !ffs.Crashed() {
			t.Fatalf("budget %d: crash did not trip", budget)
		}
		rec := recoverSurvivor(t, budget, ffs.Survivor(crashfs.PowerLoss), FsyncAlways)
		got := dumpCollection(rec)
		rec.Close()
		hi := acked
		if inFlight {
			hi++
		}
		matched := -1
		for j := hi; j >= len(ops); j-- {
			if sameDump(got, dumps[j]) {
				matched = j
				break
			}
		}
		if matched < 0 {
			t.Fatalf("budget %d: promoted follower state not a history prefix (acked %d)", budget, acked)
		}
		// No acknowledged write lost: fsync=always + power loss.
		if !sameDump(got, dumps[acked]) && !(inFlight && sameDump(got, dumps[acked+1])) {
			t.Fatalf("budget %d: acknowledged post-promotion write lost (matched %d, acked %d)", budget, matched, acked)
		}
	}
}

// --- Randomized concurrent property test ----------------------------------

// randomReplOps builds a seeded random mutation history over every op
// kind. All kinds are closed under no-op semantics (recluster and
// compact no-op when there is nothing to do; deletes are guarded), so
// any interleaving is valid on both the durable leader and the
// in-memory oracle.
func randomReplOps(rng *rand.Rand, n int) []crashOp {
	vec := func() []float64 {
		v := make([]float64, crashDims)
		for d := range v {
			v[d] = float64(rng.Intn(1000)) / 1000
		}
		return v
	}
	var ops []crashOp
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 40:
			ops = append(ops, crashOp{kind: "add", vec: vec()})
		case p < 55:
			batch := make([][]float64, 1+rng.Intn(4))
			for b := range batch {
				batch[b] = vec()
			}
			ops = append(ops, crashOp{kind: "batch", batch: batch})
		case p < 75:
			ops = append(ops, crashOp{kind: "delete", id: rng.Intn(64)})
		case p < 80:
			ops = append(ops, crashOp{kind: "compact", ratio: float64(rng.Intn(4)) / 10})
		case p < 85:
			ops = append(ops, crashOp{kind: "seal"})
		case p < 92:
			ops = append(ops, crashOp{kind: "recluster", k: rng.Intn(3), seed: rng.Int63n(1000)})
		default:
			ops = append(ops, crashOp{kind: "checkpoint"})
		}
	}
	return ops
}

// TestReplPropertyConcurrent is the randomized replication property
// test: the leader executes random histories while a follower tails
// CONCURRENTLY on the same (concurrency-safe) MemFS, re-bootstrapping
// whenever a leader checkpoint garbage-collects its position. After the
// dust settles the follower must be byte-identical to the leader and
// both must match the in-memory oracle. Run with -race.
func TestReplPropertyConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := randomReplOps(rng, 120)
			dumps := oracleDumps(t, ops)
			final := dumps[len(dumps)-1]

			fs := crashfs.NewMemFS()
			leader := mustOpenDurable(t, fs, "leader.bond", FsyncNever)
			defer leader.Close()
			follower := mustOpenDurable(t, fs, "replica.bond", FsyncNever)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					err := tailReplica(leader, follower)
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrReplGone) {
						t.Errorf("concurrent tail: %v", err)
						return
					}
					snap, serr := leader.ReplSnapshot()
					if serr != nil {
						t.Errorf("concurrent snapshot: %v", serr)
						return
					}
					follower.Close()
					follower, err = BootstrapReplica("replica.bond", snap, DurableOptions{
						FS: fs, Dims: crashDims, SegmentSize: crashSegSize, Fsync: FsyncNever,
					})
					if err != nil {
						t.Errorf("concurrent bootstrap: %v", err)
						return
					}
				}
			}()

			for i, op := range ops {
				if err := applyCrashOp(leader, op); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
			close(done)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Final drain, single-threaded.
			follower = tailOrBootstrap(t, fs, "replica.bond", leader, follower, FsyncNever)
			defer follower.Close()

			if got := dumpCollection(leader); !sameDump(got, final) {
				t.Fatalf("seed %d: leader diverged from oracle", seed)
			}
			if got := dumpCollection(follower); !sameDump(got, final) {
				t.Fatalf("seed %d: follower diverged from oracle", seed)
			}
			lp, _ := leader.ReplPosition()
			fp, _ := follower.ReplPosition()
			if lp != fp {
				t.Fatalf("seed %d: final positions diverged: %v vs %v", seed, lp, fp)
			}
			assertReplicaIdentical(t, fs, "leader.bond", fs, "replica.bond")
		})
	}
}
