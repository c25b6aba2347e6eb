package repl

import (
	"testing"

	"bond/internal/vstore"
	"bond/internal/wal"
)

func TestPositionBefore(t *testing.T) {
	cases := []struct {
		p, q Position
		want bool
	}{
		{Position{0, 16}, Position{0, 17}, true},
		{Position{0, 17}, Position{0, 16}, false},
		{Position{0, 99}, Position{1, 16}, true},
		{Position{1, 16}, Position{0, 99}, false},
		{Position{2, 40}, Position{2, 40}, false},
	}
	for _, c := range cases {
		if got := c.p.Before(c.q); got != c.want {
			t.Errorf("%v Before %v = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestChunkEnd(t *testing.T) {
	ch := Chunk{Seq: 3, From: 100, Data: make([]byte, 40)}
	if got := ch.End(); got != (Position{Seq: 3, Off: 140}) {
		t.Fatalf("End = %v", got)
	}
}

// validSnapshot builds a minimal structurally valid snapshot.
func validSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	m := &vstore.Manifest{Dims: 3, SegSize: 5, NextSegID: 2, WALSeq: 4, ActiveLen: 1,
		Segments: []vstore.ManifestSegment{{ID: 1, Len: 5}}}
	return &Snapshot{
		Position: Position{Seq: 4, Off: wal.HeaderLen},
		Files: map[string][]byte{
			vstore.ManifestName:      vstore.EncodeManifest(m),
			vstore.SegFileName(1):    {1, 2, 3},
			vstore.ActiveFileName(4): {4, 5, 6},
		},
	}
}

func TestSnapshotValidate(t *testing.T) {
	if err := validSnapshot(t).Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	s := validSnapshot(t)
	delete(s.Files, vstore.ManifestName)
	if err := s.Validate(); err == nil {
		t.Fatal("missing manifest accepted")
	}

	s = validSnapshot(t)
	s.Files[vstore.ManifestName] = []byte("garbage")
	if err := s.Validate(); err == nil {
		t.Fatal("corrupt manifest accepted")
	}

	// A stale snapshot position paired with a newer manifest generation
	// must be rejected whole — the follower would tail the wrong log.
	s = validSnapshot(t)
	s.Position.Seq = 3
	if err := s.Validate(); err == nil {
		t.Fatal("stale position accepted")
	}
	s = validSnapshot(t)
	s.Position.Off = wal.HeaderLen + 8
	if err := s.Validate(); err == nil {
		t.Fatal("mid-log position accepted")
	}

	s = validSnapshot(t)
	delete(s.Files, vstore.SegFileName(1))
	if err := s.Validate(); err == nil {
		t.Fatal("missing segment accepted")
	}

	s = validSnapshot(t)
	delete(s.Files, vstore.ActiveFileName(4))
	if err := s.Validate(); err == nil {
		t.Fatal("missing active checkpoint accepted")
	}

	s = validSnapshot(t)
	s.Files["stray.bin"] = []byte{9}
	if err := s.Validate(); err == nil {
		t.Fatal("unexpected file accepted")
	}

	s = validSnapshot(t)
	s.Files[vstore.SegFileName(1)] = nil
	if err := s.Validate(); err == nil {
		t.Fatal("empty file accepted")
	}
}
