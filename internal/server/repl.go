package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/repl"
)

// Replication over HTTP. A leader is any bondd node: it serves its WAL
// as acknowledged byte chunks (GET /collections/{name}/wal) and
// checkpoint snapshots for bootstrap (POST /collections/{name}/
// snapshot). A follower is a bondd started with Config.FollowURL: it
// tails every leader collection through bond.ApplyReplChunk — the same
// stage → log → apply path the mutators and recovery use — so its
// on-disk state is byte-identical to the leader at every applied offset,
// rejects client mutations with 409 read_only_replica, and reports its
// lag on GET /replstatus. POST /promote turns a caught-up follower into a
// leader (idempotent; 409 replica_diverged fences a follower whose
// state cannot be a prefix of the leader's history).

// errReadOnlyReplica is served (409, code read_only_replica) for every
// client mutation on an unpromoted follower. 4xx is deliberate: the
// coordinator's envelope treats it as non-transient and does not burn
// retries on a node that will keep refusing.
var errReadOnlyReplica = &api.StatusError{
	Status: http.StatusConflict,
	Code:   "read_only_replica",
	Msg:    "server: read-only replica (following a leader; POST /promote to accept writes)",
}

// errLeaderUnreachable tags transport-level sync failures (dial refused,
// timeout, connection torn mid-body). caught_up is an as-of-last-
// successful-leader-contact assessment — a follower that drained the
// stream and then lost the leader is exactly the one failover exists to
// promote — so unreachable errors are reported in last_error but never
// clear the caught-up assessment. Every other error (rejected position,
// failed apply, bad payload) is a statement about the stream itself and
// does clear it.
var errLeaderUnreachable = errors.New("leader unreachable")

// replicator tails a leader and owns the follower-mode state.
type replicator struct {
	s        *Server
	leader   string
	hc       *http.Client
	interval time.Duration

	// syncMu serializes sync passes (the background loop and
	// SyncReplicaOnce) and the promotion handshake against each other.
	syncMu sync.Mutex

	// missing counts, per local collection, how many consecutive sync
	// passes the leader's listing has omitted it. Dropping replica data
	// is irreversible, so one surprising listing is never enough — see
	// replDropAfterMisses. Touched only under syncMu.
	missing map[string]int

	mu         sync.Mutex
	promoted   bool
	cols       map[string]*replColState
	syncs      int64
	lastSyncMs int64
	lastErr    string
	down       bool // lastErr is a leader-unreachable transport error

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// replColState is one collection's tailing state, refreshed by every
// sync pass.
type replColState struct {
	pos      repl.Position
	leader   repl.Position
	caughtUp bool
	diverged bool
	lastErr  string
}

func newReplicator(s *Server, cfg Config) *replicator {
	hc := cfg.FollowClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	r := &replicator{
		s:        s,
		leader:   cfg.FollowURL,
		hc:       hc,
		interval: cfg.FollowInterval,
		cols:     map[string]*replColState{},
		missing:  map[string]int{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if r.interval == 0 {
		r.interval = 500 * time.Millisecond
	}
	if r.interval > 0 {
		go r.loop()
	} else {
		close(r.done)
	}
	return r
}

func (r *replicator) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if err := r.syncOnce(); err != nil {
				r.s.logf("bondd: replica sync: %v", err)
			}
		}
	}
}

func (r *replicator) stopLoop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *replicator) isPromoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// promote stops tailing and flips the node writable. It fails with
// errReplicaDiverged if any collection's stream state is fenced —
// promoting it would serve a history that is not a prefix of the
// leader's. Idempotent: promoting a promoted node succeeds.
func (r *replicator) promote() error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return nil
	}
	for name, cs := range r.cols {
		if cs.diverged {
			r.mu.Unlock()
			return fmt.Errorf("%w: collection %q: %s", errReplicaDiverged, name, cs.lastErr)
		}
	}
	r.promoted = true
	r.mu.Unlock()
	r.stopLoop()
	return nil
}

var errReplicaDiverged = errors.New("server: replica diverged from leader")

// replDropAfterMisses is how many consecutive sync passes a local
// collection must be absent from the leader's listing before the
// follower deletes its replica of it. Dropping is irreversible, so a
// single surprising listing — a leader restarted against the wrong or
// an empty -data dir, a follower pointed at the wrong URL — must not
// wipe the replica; a real drop converges after this many passes.
const replDropAfterMisses = 3

// syncOnce runs one full tail pass: list the leader's collections, drop
// local ones the leader has persistently stopped listing (see
// replDropAfterMisses), then for each collection bootstrap if needed
// and stream until caught up. Deterministic and re-entrant — tests
// drive it directly via Server.SyncReplicaOnce.
func (r *replicator) syncOnce() error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	if r.isPromoted() {
		return nil
	}
	var names struct {
		Collections []string `json:"collections"`
	}
	if err := r.getJSON("/collections", &names); err != nil {
		r.noteSync(err)
		return err
	}
	leaderHas := make(map[string]bool, len(names.Collections))
	for _, name := range names.Collections {
		leaderHas[name] = true
	}
	local, err := r.s.cat.Names()
	if err != nil {
		r.noteSync(err)
		return err
	}
	for _, name := range local {
		if leaderHas[name] {
			delete(r.missing, name)
			continue
		}
		r.missing[name]++
		switch {
		case r.missing[name] < replDropAfterMisses:
			r.s.logf("bondd: replica: leader no longer lists collection %q (pass %d/%d), deferring drop",
				name, r.missing[name], replDropAfterMisses)
			continue
		case len(names.Collections) == 0 && len(local) > 1:
			// An empty listing against a multi-collection replica is far
			// more likely a leader restarted on the wrong/empty -data dir
			// than a deliberate drop of everything at once. Refuse the
			// mass wipe; an operator can drop or re-bootstrap explicitly.
			r.s.logf("bondd: replica: refusing to drop %q — leader lists no collections while this replica holds %d; check the leader's -data dir",
				name, len(local))
			continue
		}
		delete(r.missing, name)
		r.s.logf("bondd: replica: dropping collection %q, absent from %d consecutive leader listings", name, replDropAfterMisses)
		if derr := r.s.cat.Drop(name); derr != nil && !errors.Is(derr, ErrNotFound) {
			r.noteSync(derr)
			return derr
		}
		r.mu.Lock()
		delete(r.cols, name)
		r.mu.Unlock()
	}
	var firstErr error
	for _, name := range names.Collections {
		if err := r.syncCollection(name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("collection %q: %w", name, err)
		}
	}
	r.noteSync(firstErr)
	return firstErr
}

// noteSync records the pass outcome for /replstatus.
func (r *replicator) noteSync(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncs++
	if err != nil {
		r.lastErr = err.Error()
		r.down = errors.Is(err, errLeaderUnreachable)
		return
	}
	r.lastErr = ""
	r.down = false
	r.lastSyncMs = time.Now().UnixMilli()
}

// colState returns (creating if needed) the tail state for name.
func (r *replicator) colState(name string) *replColState {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.cols[name]
	if cs == nil {
		cs = &replColState{}
		r.cols[name] = cs
	}
	return cs
}

// syncCollection tails one collection until it is caught up with the
// leader position reported by the last chunk.
func (r *replicator) syncCollection(name string) error {
	cs := r.colState(name)
	r.mu.Lock()
	if cs.diverged {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", errReplicaDiverged, cs.lastErr)
	}
	r.mu.Unlock()

	col, err := r.s.cat.Get(name)
	if errors.Is(err, ErrNotFound) {
		if col, err = r.bootstrap(name); err != nil {
			return r.noteCol(cs, err)
		}
	} else if err != nil {
		return r.noteCol(cs, err)
	}

	max := 0 // leader default; doubled when a chunk holds no complete frame
	for {
		pos, err := col.ReplPosition()
		if err != nil {
			return r.noteCol(cs, err)
		}
		chunk, status, err := r.fetchChunk(name, pos, max)
		if err != nil {
			return r.noteCol(cs, err)
		}
		switch {
		case status == http.StatusOK:
		case status == http.StatusGone:
			// The leader checkpointed past our position: the bytes between
			// us and its snapshot are unreachable, so re-bootstrap whole.
			if col, err = r.bootstrap(name); err != nil {
				return r.noteCol(cs, err)
			}
			continue
		case status == http.StatusConflict:
			// Our position does not exist in the leader's history — this
			// replica has state the leader never produced. Fence it.
			r.mu.Lock()
			cs.diverged = true
			cs.lastErr = fmt.Sprintf("leader rejected position %s", pos)
			r.mu.Unlock()
			return fmt.Errorf("%w: leader rejected position %s", errReplicaDiverged, pos)
		default:
			return r.noteCol(cs, fmt.Errorf("leader wal fetch: status %d", status))
		}
		if err := col.ApplyReplChunk(chunk); err != nil {
			if errors.Is(err, bond.ErrReplDiverged) {
				r.mu.Lock()
				cs.diverged = true
				cs.lastErr = err.Error()
				r.mu.Unlock()
			}
			return r.noteCol(cs, err)
		}
		after, err := col.ReplPosition()
		if err != nil {
			return r.noteCol(cs, err)
		}
		r.mu.Lock()
		cs.pos, cs.leader = after, chunk.Leader
		cs.caughtUp = after == chunk.Leader
		cs.lastErr = ""
		r.mu.Unlock()
		switch {
		case chunk.Rotated && after == chunk.End():
			// The chunk completed the leader's old generation and every
			// frame applied: mirror the rotation. The follower's own
			// checkpoint assigns the same sequence the leader's did, so the
			// two stay in lockstep.
			if err := col.Checkpoint(); err != nil {
				return r.noteCol(cs, err)
			}
			max = 0
		case len(chunk.Data) > 0 && after == pos:
			// A full chunk with no complete frame: one record is larger
			// than the chunk size. Ask for more.
			if max == 0 {
				max = 2 << 20
			} else {
				max *= 2
			}
			if max > 1<<28 {
				return r.noteCol(cs, fmt.Errorf("replication frame larger than %d bytes at %s", max/2, pos))
			}
		case len(chunk.Data) == 0 && !chunk.Rotated:
			// Caught up (or the leader has nothing newer).
			return nil
		default:
			max = 0
		}
	}
}

// noteCol records a collection-level error for /replstatus and returns
// it.
func (r *replicator) noteCol(cs *replColState, err error) error {
	r.mu.Lock()
	cs.lastErr = err.Error()
	if !errors.Is(err, errLeaderUnreachable) {
		cs.caughtUp = false
	}
	r.mu.Unlock()
	return err
}

// bootstrap fetches a fresh snapshot from the leader and installs it,
// replacing any local state for the collection.
func (r *replicator) bootstrap(name string) (*bond.Collection, error) {
	resp, err := r.hc.Post(r.leader+"/collections/"+name+"/snapshot", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("leader snapshot: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var snap repl.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("leader snapshot: %w", err)
	}
	col, err := r.s.cat.BootstrapReplica(name, &snap)
	if err != nil {
		return nil, err
	}
	cs := r.colState(name)
	r.mu.Lock()
	cs.pos, cs.leader = snap.Position, snap.Position
	cs.caughtUp, cs.diverged, cs.lastErr = false, false, ""
	r.mu.Unlock()
	return col, nil
}

// fetchChunk GETs one WAL chunk from the leader. Non-2xx statuses the
// protocol assigns meaning to (409, 410) are returned as statuses, not
// errors, for the caller to dispatch on.
func (r *replicator) fetchChunk(name string, pos repl.Position, max int) (repl.Chunk, int, error) {
	url := fmt.Sprintf("%s/collections/%s/wal?seq=%d&from=%d", r.leader, name, pos.Seq, pos.Off)
	if max > 0 {
		url += "&max=" + strconv.Itoa(max)
	}
	resp, err := r.hc.Get(url)
	if err != nil {
		return repl.Chunk{}, 0, fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return repl.Chunk{}, 0, fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK {
		return repl.Chunk{}, resp.StatusCode, nil
	}
	var chunk repl.Chunk
	if err := json.Unmarshal(body, &chunk); err != nil {
		return repl.Chunk{}, 0, fmt.Errorf("leader wal chunk: %w", err)
	}
	return chunk, resp.StatusCode, nil
}

// getJSON GETs a leader endpoint and decodes its 200 body.
func (r *replicator) getJSON(path string, out any) error {
	resp, err := r.hc.Get(r.leader + path)
	if err != nil {
		return fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: %v", errLeaderUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// status assembles the /replstatus report.
func (r *replicator) status() api.ReplStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := api.ReplStatus{
		Following:      r.leader,
		Promoted:       r.promoted,
		Syncs:          r.syncs,
		LastSyncUnixMs: r.lastSyncMs,
		LastError:      r.lastErr,
		Collections:    make(map[string]api.ReplCollection, len(r.cols)),
	}
	// caught_up is as-of-last-successful-leader-contact: it requires at
	// least one fully clean sync pass (lastSyncMs != 0 — a follower that
	// never reached its leader has nothing to be caught up *to*), and a
	// later leader-unreachable failure preserves the assessment rather
	// than clearing it — a drained follower whose leader just died is
	// exactly the one failover promotes. Stream-level errors (r.down
	// false) still clear it, as do lag and divergence below.
	st.CaughtUp = r.lastSyncMs != 0 && (r.lastErr == "" || r.down)
	for name, cs := range r.cols {
		lag := cs.leader.Off - cs.pos.Off
		if cs.leader.Seq != cs.pos.Seq || lag < 0 {
			lag = cs.leader.Off // rough: bytes into a generation we have none of
		}
		st.Collections[name] = api.ReplCollection{
			Seq:       cs.pos.Seq,
			Off:       cs.pos.Off,
			LeaderSeq: cs.leader.Seq,
			LeaderOff: cs.leader.Off,
			LagBytes:  lag,
			CaughtUp:  cs.caughtUp,
			Diverged:  cs.diverged,
			LastError: cs.lastErr,
		}
		st.LagBytes += lag
		if cs.diverged {
			st.Diverged = true
		}
		if !cs.caughtUp {
			st.CaughtUp = false
		}
	}
	if st.Diverged {
		st.CaughtUp = false
	}
	return st
}

// --- Server integration ----------------------------------------------------

// readOnlyReplica reports whether the node is an unpromoted follower.
func (s *Server) readOnlyReplica() bool {
	return s.repl != nil && !s.repl.isPromoted()
}

// SyncReplicaOnce runs one synchronous tail pass against the leader —
// the deterministic test hook behind the background follow loop.
func (s *Server) SyncReplicaOnce() error {
	if s.repl == nil {
		return fmt.Errorf("server: not a replica")
	}
	return s.repl.syncOnce()
}

// ReplStatus returns the follower gauges (zero value on a node that was
// never a follower).
func (s *Server) ReplStatus() api.ReplStatus {
	if s.repl == nil {
		return api.ReplStatus{}
	}
	return s.repl.status()
}

// replError gives a bond replication error the status and code the API
// answers it with.
func replError(err error) error {
	se := &api.StatusError{Status: http.StatusInternalServerError, Msg: err.Error()}
	switch {
	case errors.Is(err, bond.ErrReplGone):
		se.Status, se.Code = http.StatusGone, "wal_gone"
	case errors.Is(err, bond.ErrReplDiverged):
		se.Status, se.Code = http.StatusConflict, "repl_diverged"
	case errors.Is(err, bond.ErrClosed):
		se.Status, se.Code = http.StatusServiceUnavailable, "closed"
	}
	return se
}

// handleWALChunk serves GET /collections/{name}/wal?seq=&from=&max= —
// one slice of the collection's replication stream (acknowledged bytes
// only; it may end mid-frame when a frame straddles max).
func (s *Server) handleWALChunk(w http.ResponseWriter, r *http.Request) {
	col, err := s.collection(r.PathValue("name"))
	if err != nil {
		api.WriteError(w, err)
		return
	}
	q := r.URL.Query()
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		api.WriteError(w, api.Errorf(http.StatusBadRequest, "bad seq: %v", err))
		return
	}
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		api.WriteError(w, api.Errorf(http.StatusBadRequest, "bad from: %v", err))
		return
	}
	max := 0
	if v := q.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil {
			api.WriteError(w, api.Errorf(http.StatusBadRequest, "bad max: %v", err))
			return
		}
	}
	chunk, err := col.ReplChunk(seq, from, max)
	if err != nil {
		api.WriteError(w, replError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, chunk)
}

// handleSnapshot serves POST /collections/{name}/snapshot: checkpoint
// the collection and return the packaged durable files a follower
// bootstraps from. Fenced on an unpromoted follower — a snapshot
// rotates the WAL, which only the leader's stream may do here.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.readOnlyReplica() {
		api.WriteError(w, errReadOnlyReplica)
		return
	}
	col, err := s.collection(r.PathValue("name"))
	if err != nil {
		api.WriteError(w, err)
		return
	}
	snap, err := col.ReplSnapshot()
	if err != nil {
		api.WriteError(w, replError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, snap)
}

// handlePromote serves POST /promote: flip a caught-up follower into a
// writable leader. Idempotent; 409 replica_diverged fences a follower
// whose state is not a prefix of the leader's history, and 409
// not_replica rejects a node that was never following.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.repl == nil {
		api.WriteError(w, &api.StatusError{
			Status: http.StatusConflict,
			Code:   "not_replica",
			Msg:    "not a replica (started without -follow)",
		})
		return
	}
	if err := s.repl.promote(); err != nil {
		api.WriteError(w, &api.StatusError{Status: http.StatusConflict, Code: "replica_diverged", Msg: err.Error()})
		return
	}
	s.logf("bondd: promoted to leader (was following %s)", s.repl.leader)
	api.WriteJSON(w, http.StatusOK, s.repl.status())
}

// handleReplStatus serves GET /replstatus — the follower's self-report
// the coordinator's prober reads before promoting.
func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.ReplStatus())
}

// --- Catalog integration ---------------------------------------------------

// BootstrapReplica replaces name's on-disk state with a leader snapshot
// and (re)loads it. It holds the per-name single-flight slot and the
// checkpoint mutex for the whole install, so no lookup ever sees a
// half-written tree and no checkpoint sweep races the wipe.
func (c *Catalog) BootstrapReplica(name string, snap *repl.Snapshot) (*bond.Collection, error) {
	if !api.ValidName(name) {
		return nil, ErrBadName
	}
	c.claimSlot(name, false)
	defer c.releaseName(name)
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()

	c.mu.Lock()
	old := c.cols[name]
	delete(c.cols, name)
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	col, err := bond.BootstrapReplica(c.path(name), snap, bond.DurableOptions{
		Fsync:       c.fsync,
		DisableMmap: c.disableMmap,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cols[name] = col
	c.mu.Unlock()
	return col, nil
}
