package bond

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/repl"
	"bond/internal/vstore"
	"bond/internal/wal"
)

// A record's meaning lives in stage and apply, which every mutator, WAL
// replay and a follower's chunk apply share. These tests hold the two
// logged paths to it: what one refuses the other refuses with the same
// reason, and what a follower accepts its own recovery reproduces.

// stagedBase creates a durable collection of 2 dims and segment size 2 on
// a MemFS, runs ops on it and closes it. It returns the filesystem, the
// collection's directory and the path of its live WAL.
func stagedBase(t testing.TB, ops func(c *Collection) error) (*crashfs.MemFS, string, string) {
	t.Helper()
	fs := crashfs.NewMemFS()
	dir := "col.bond"
	c, err := OpenDurable(dir, DurableOptions{FS: fs, Dims: 2, SegmentSize: 2, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := ops(c); err != nil {
		t.Fatal(err)
	}
	pos, err := c.ReplPosition()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, dir, filepath.Join(dir, vstore.WALFileName(pos.Seq))
}

// TestReplayAndFollowerRefuseAlike offers each record a state cannot
// accept to WAL replay and to a follower: recovery must fail naming the
// WAL and the reason, and the follower must answer ErrReplDiverged with
// the same reason, logging and storing nothing.
func TestReplayAndFollowerRefuseAlike(t *testing.T) {
	// One sealed segment of two rows, both deleted, and one active row:
	// Len 3, no sealed row live.
	base, dir, walName := stagedBase(t, func(c *Collection) error {
		if _, err := c.AddBatchDurable([][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}); err != nil {
			return err
		}
		for id := 0; id < 2; id++ {
			if _, err := c.TryDeleteDurable(id); err != nil {
				return err
			}
		}
		return nil
	})
	cases := []struct {
		name   string
		rec    wal.Record
		reason string // a fragment of the refusal both paths must give
	}{
		{"add wrong dims", wal.Record{Type: wal.TypeAdd, Vectors: [][]float64{{0.1, 0.2, 0.3}}}, "has 3 dims"},
		{"add NaN", wal.Record{Type: wal.TypeAddBatch, Vectors: [][]float64{{0.1, 0.2}, {0.3, math.NaN()}}}, "vector 1 coordinate 1 is NaN"},
		{"delete at Len", wal.Record{Type: wal.TypeDelete, ID: 3}, "delete of id 3 outside [0,3)"},
		{"recluster k 0", wal.Record{Type: wal.TypeRecluster, K: 0, Seed: 1}, "k=0"},
		{"recluster no sealed live", wal.Record{Type: wal.TypeRecluster, K: 1, Seed: 1}, "no sealed live vectors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := wal.EncodeFrame(nil, tc.rec)

			c, err := OpenDurable(dir, DurableOptions{FS: base.Clone(false)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := c.Len()
			pos, err := c.ReplPosition()
			if err != nil {
				t.Fatal(err)
			}
			ferr := c.ApplyReplChunk(repl.Chunk{Seq: pos.Seq, From: pos.Off, Data: frame})
			if !errors.Is(ferr, ErrReplDiverged) || !strings.Contains(ferr.Error(), tc.reason) {
				t.Fatalf("follower: got %v, want ErrReplDiverged: …%s…", ferr, tc.reason)
			}
			after, _ := c.ReplPosition()
			if c.Len() != n || after != pos {
				t.Fatalf("follower changed: Len %d → %d, position %v → %v", n, c.Len(), pos, after)
			}

			fs := base.Clone(false)
			f, err := fs.Append(walName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
			_, rerr := OpenDurable(dir, DurableOptions{FS: fs})
			reason := strings.TrimPrefix(ferr.Error(), ErrReplDiverged.Error()+": ")
			want := "bond: replay " + filepath.Base(walName) + ": " + reason
			if rerr == nil || rerr.Error() != want {
				t.Fatalf("replay: got %v, want %q", rerr, want)
			}
		})
	}
}

// followerBase is the fuzz targets' follower: a checkpointed collection of
// 2 dims with sealed segments of 2, 1, 2 and 2 rows, an empty active one,
// and ids 1 and 4 deleted. It returns the filesystem and the directory.
func followerBase(tb testing.TB) (*crashfs.MemFS, string) {
	tb.Helper()
	base, dir, _ := stagedBase(tb, func(c *Collection) error {
		rows := [][]float64{{0.1, 0.9}, {0.2, 0.8}, {0.3, 0.7}, {0.7, 0.3}, {0.8, 0.2}, {0.9, 0.1}, {0.5, 0.5}}
		if _, err := c.AddBatchDurable(rows[:3]); err != nil {
			return err
		}
		if err := c.SealActiveDurable(); err != nil {
			return err
		}
		if _, err := c.AddBatchDurable(rows[3:]); err != nil {
			return err
		}
		for _, id := range []int{1, 4} {
			if _, err := c.TryDeleteDurable(id); err != nil {
				return err
			}
		}
		return c.Checkpoint()
	})
	return base, dir
}

// FuzzApplyReplChunk applies one record built from fuzzed fields to a
// follower that holds sealed segments and tombstones. A refused record
// must change nothing; an accepted one must survive close and reopen —
// whose replay stages and applies it again — as the same rows and
// tombstones. Nothing may panic.
func FuzzApplyReplChunk(f *testing.F) {
	base, dir := followerBase(f)
	f.Add(uint8(0), uint64(0), 0.0, uint64(0), int64(0), uint8(0), uint8(1), 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
	f.Add(uint8(1), uint64(0), 0.0, uint64(0), int64(0), uint8(1), uint8(1), 0.1, 0.2, 0.3, math.NaN(), 0.5, 0.6)
	f.Add(uint8(2), uint64(6), 0.0, uint64(0), int64(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint64(0), 0.5, uint64(0), int64(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(4), uint64(0), 0.0, uint64(0), int64(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(5), uint64(0), 0.0, uint64(2), int64(7), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, typ uint8, id uint64, ratio float64, k uint64, seed int64, nvec, dims uint8, x0, x1, x2, x3, x4, x5 float64) {
		xs := []float64{x0, x1, x2, x3, x4, x5}
		d := int(dims%3) + 1
		vectors := [][]float64{xs[:d], xs[3 : 3+d]}[:nvec%2+1]
		rec := wal.Record{Type: wal.TypeAdd + wal.Type(typ%6), ID: id, Ratio: ratio, K: k, Seed: seed}
		switch rec.Type {
		case wal.TypeAdd:
			rec.Vectors = vectors[:1]
		case wal.TypeAddBatch:
			rec.Vectors = vectors
		}
		fs := base.Clone(false)
		c, err := OpenDurable(dir, DurableOptions{FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		before := dumpCollection(c)
		pos, err := c.ReplPosition()
		if err != nil {
			t.Fatal(err)
		}
		err = c.ApplyReplChunk(repl.Chunk{Seq: pos.Seq, From: pos.Off, Data: wal.EncodeFrame(nil, rec)})
		if err != nil {
			after, _ := c.ReplPosition()
			if !errors.Is(err, ErrReplDiverged) || after != pos || !sameDump(dumpCollection(c), before) {
				t.Fatalf("refused %+v (%v) but changed: position %v → %v", rec, err, pos, after)
			}
			return
		}
		applied := dumpCollection(c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = OpenDurable(dir, DurableOptions{FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("reopen after %+v: %v", rec, err)
		}
		defer c.Close()
		if got := dumpCollection(c); !sameDump(got, applied) {
			t.Fatalf("%+v: replay %+v, applied %+v", rec, got, applied)
		}
	})
}

// replStream is a stream of frames the fuzz follower accepts: one record
// of each type.
func replStream() []byte {
	var out []byte
	for _, rec := range []wal.Record{
		{Type: wal.TypeAdd, Vectors: [][]float64{{0.4, 0.6}}},
		{Type: wal.TypeAddBatch, Vectors: [][]float64{{0.2, 0.3}, {0.6, 0.1}}},
		{Type: wal.TypeDelete, ID: 2},
		{Type: wal.TypeCompact, Ratio: 0.5},
		{Type: wal.TypeSeal},
		{Type: wal.TypeRecluster, K: 2, Seed: 42},
	} {
		out = wal.EncodeFrame(out, rec)
	}
	return out
}

// FuzzReplStream offers arbitrary bytes — torn frames, duplicated frames,
// CRC flips, garbage — as one chunk to a follower's ApplyReplChunk, the
// path a follower parses the leader's stream on. The follower must never
// panic; it must advance over whole frames only, stopping at a torn tail
// (no error) or at a frame it refuses (ErrReplDiverged); the same chunk
// offered again must change nothing; and what it applied must survive
// close and reopen as the same rows and tombstones.
func FuzzReplStream(f *testing.F) {
	base, dir := followerBase(f)
	stream := replStream()
	f.Add([]byte(nil))
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail
	f.Add(stream[:7])             // torn header
	// Duplicated frames: each copy is applied again.
	f.Add(append(append([]byte(nil), stream...), stream...))
	// CRC flip in the first frame's payload.
	flipped := append([]byte(nil), stream...)
	flipped[10] ^= 0xff
	f.Add(flipped)
	// Length field smashed to a huge value: looks torn, must not allocate
	// or loop badly.
	huge := append([]byte(nil), stream...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	f.Add(huge)
	f.Add([]byte("not a frame at all, just prose"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := base.Clone(false)
		c, err := OpenDurable(dir, DurableOptions{FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		pos, err := c.ReplPosition()
		if err != nil {
			t.Fatal(err)
		}
		ch := repl.Chunk{Seq: pos.Seq, From: pos.Off, Data: data}
		aerr := c.ApplyReplChunk(ch)
		p, err := c.ReplPosition()
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != pos.Seq || p.Off < pos.Off || p.Off > pos.Off+int64(len(data)) {
			t.Fatalf("position %v → %v over %d bytes", pos, p, len(data))
		}
		applied, rest := data[:p.Off-pos.Off], data[p.Off-pos.Off:]
		for len(applied) > 0 {
			_, n, err := wal.ParseFrame(applied)
			if err != nil {
				t.Fatalf("applied bytes are not whole frames: %v", err)
			}
			applied = applied[n:]
		}
		if aerr == nil {
			if _, _, err := wal.ParseFrame(rest); len(rest) > 0 && !wal.IsTorn(err) {
				t.Fatalf("accepted a chunk whose unapplied %d bytes are not a torn frame: %v", len(rest), err)
			}
		} else if !errors.Is(aerr, ErrReplDiverged) {
			t.Fatalf("refusal %v does not wrap ErrReplDiverged", aerr)
		}

		state := dumpCollection(c)
		_ = c.ApplyReplChunk(ch)
		if again, _ := c.ReplPosition(); again != p || !sameDump(dumpCollection(c), state) {
			t.Fatalf("the same chunk again moved the follower: position %v → %v", p, again)
		}

		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = OpenDurable(dir, DurableOptions{FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer c.Close()
		if got := dumpCollection(c); !sameDump(got, state) {
			t.Fatalf("replay %+v, applied %+v", got, state)
		}
	})
}
