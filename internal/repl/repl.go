// Package repl defines the replication wire protocol: the types and
// validation for shipping a collection's CRC-framed WAL from a leader
// to followers, plus checkpoint snapshots for follower bootstrap.
//
// The protocol is deliberately dumb — a follower mirrors the leader's
// log bytes verbatim into its own wal-<seq>.log files and applies each
// record through the same stage and apply recovery uses, so follower
// state is byte-identical to the leader at every applied offset. A stream
// position is therefore just (WAL file sequence, byte offset), and
// catch-up after any interruption resumes from whatever position the
// follower's own recovery reports.
//
// A snapshot that does not validate is rejected whole before a byte of it
// is written.
package repl

import (
	"fmt"

	"bond/internal/vstore"
	"bond/internal/wal"
)

// Position identifies a point in a collection's replicated WAL stream:
// the WAL file sequence number and the byte offset within that file.
// Offset wal.HeaderLen is the start of an empty log.
type Position struct {
	Seq uint64 `json:"seq"`
	Off int64  `json:"off"`
}

// Before reports whether p is strictly earlier in the stream than q.
func (p Position) Before(q Position) bool {
	if p.Seq != q.Seq {
		return p.Seq < q.Seq
	}
	return p.Off < q.Off
}

func (p Position) String() string {
	return fmt.Sprintf("wal-%d@%d", p.Seq, p.Off)
}

// Chunk is one streamed slice of a leader's WAL, as served by
// GET /collections/{name}/wal.
type Chunk struct {
	// Seq and From echo the requested position; Data holds the raw
	// CRC-framed record bytes starting there. The leader serves only
	// acknowledged bytes, but a chunk may end mid-frame when a frame
	// straddles the size cap: the consumer keeps the torn tail pending
	// (wal.ParseFrame reports it torn, not corrupt) and the next chunk,
	// requested from the last complete frame, re-serves it.
	Seq  uint64 `json:"seq"`
	From int64  `json:"from"`
	Data []byte `json:"data,omitempty"`
	// Rotated reports that wal-<Seq> is complete: once Data is consumed
	// the follower has the whole file and should checkpoint-rotate to
	// Seq+1, mirroring the rotation the leader performed.
	Rotated bool `json:"rotated,omitempty"`
	// Leader is the leader's current live position — the follower's lag
	// gauge is the stream distance from its own position to this.
	Leader Position `json:"leader"`
}

// End returns the stream position just past this chunk's data.
func (c Chunk) End() Position {
	return Position{Seq: c.Seq, Off: c.From + int64(len(c.Data))}
}

// Snapshot is a leader checkpoint packaged for follower bootstrap: the
// exact bytes of the durable directory's files at a checkpoint
// boundary, plus the stream position that boundary corresponds to (the
// start of the fresh WAL the checkpoint rotated to). A follower
// materializes the files verbatim and tails the stream from Position.
type Snapshot struct {
	Position Position          `json:"position"`
	Files    map[string][]byte `json:"files"`
}

// Validate structurally checks a snapshot before any byte of it is
// written to a follower's disk: the manifest must decode, the file set
// must be exactly what the manifest names, and the position must be the
// start of the manifest's WAL generation. A snapshot that does not
// validate is rejected whole — a stale or truncated snapshot must never
// leave a follower with a directory recovery would misread.
func (s *Snapshot) Validate() error {
	raw, ok := s.Files[vstore.ManifestName]
	if !ok {
		return fmt.Errorf("repl: snapshot missing %s", vstore.ManifestName)
	}
	m, err := vstore.DecodeManifest(raw)
	if err != nil {
		return fmt.Errorf("repl: snapshot manifest: %w", err)
	}
	if s.Position.Seq != m.WALSeq || s.Position.Off != wal.HeaderLen {
		return fmt.Errorf("repl: snapshot position %s does not start manifest generation wal-%d", s.Position, m.WALSeq)
	}
	want := map[string]bool{vstore.ManifestName: true}
	for _, seg := range m.Segments {
		name := vstore.SegFileName(seg.ID)
		if _, ok := s.Files[name]; !ok {
			return fmt.Errorf("repl: snapshot missing segment %s", name)
		}
		want[name] = true
	}
	active := vstore.ActiveFileName(m.WALSeq)
	if _, ok := s.Files[active]; !ok {
		return fmt.Errorf("repl: snapshot missing %s", active)
	}
	want[active] = true
	for name := range s.Files {
		if !want[name] {
			return fmt.Errorf("repl: snapshot carries unexpected file %q", name)
		}
		if len(s.Files[name]) == 0 {
			return fmt.Errorf("repl: snapshot file %q is empty", name)
		}
	}
	return nil
}
