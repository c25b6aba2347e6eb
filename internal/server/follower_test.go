package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bond/internal/api"
	"bond/internal/dataset"
)

// newFollower starts a follower of leaderURL with the background tail
// loop disabled; tests drive SyncReplicaOnce for deterministic passes.
func newFollower(t *testing.T, leaderURL string) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{
		FollowURL:      leaderURL,
		FollowInterval: -1,
	})
}

// queryIdentical asserts a query served by both bases returns the same
// neighbors, byte for byte.
func queryIdentical(t *testing.T, leaderBase, followerBase, name string, spec api.QuerySpec) {
	t.Helper()
	var lr, fr api.QueryResponse
	if code := doJSON(t, http.MethodPost, leaderBase+"/collections/"+name+"/query", spec, &lr); code != http.StatusOK {
		t.Fatalf("leader query: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, followerBase+"/collections/"+name+"/query", spec, &fr); code != http.StatusOK {
		t.Fatalf("follower query: status %d", code)
	}
	if !reflect.DeepEqual(lr.Results, fr.Results) {
		t.Fatalf("follower answer diverged:\n leader   %+v\n follower %+v", lr.Results, fr.Results)
	}
}

// TestFollowerBootstrapAndTail: a follower joining an already-populated
// leader bootstraps from a snapshot, then tails incremental mutations,
// answering queries byte-identically at each synced point.
func TestFollowerBootstrapAndTail(t *testing.T) {
	const dims = 8
	vectors := dataset.CorelLike(40, dims, 3)

	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 10}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", vectors[:25])

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatalf("bootstrap sync: %v", err)
	}
	spec := api.QuerySpec{Query: vectors[0], K: 5}
	queryIdentical(t, lts.URL, fts.URL, "c", spec)

	// Incremental tail: more ingest, a delete, a recluster on the leader.
	ingestBatch(t, lts.URL, "c", vectors[25:])
	if code := doJSON(t, http.MethodDelete, lts.URL+"/collections/c/vectors/3", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, lts.URL+"/collections/c/recluster",
		api.ReclusterRequest{K: 2}, nil); code != http.StatusOK {
		t.Fatalf("recluster: status %d", code)
	}
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatalf("tail sync: %v", err)
	}
	queryIdentical(t, lts.URL, fts.URL, "c", spec)

	st := fs.ReplStatus()
	if !st.CaughtUp || st.Diverged || st.LagBytes != 0 {
		t.Fatalf("status after catch-up: %+v", st)
	}
	cs, ok := st.Collections["c"]
	if !ok || !cs.CaughtUp || cs.Seq != cs.LeaderSeq || cs.Off != cs.LeaderOff {
		t.Fatalf("collection status: %+v", cs)
	}

	// A collection dropped on the leader disappears from the follower —
	// but only after the absence persists across replDropAfterMisses
	// passes, so a transiently wrong leader listing cannot wipe a
	// replica.
	if code := doJSON(t, http.MethodDelete, lts.URL+"/collections/c", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop: status %d", code)
	}
	for pass := 1; pass < replDropAfterMisses; pass++ {
		if err := fs.SyncReplicaOnce(); err != nil {
			t.Fatalf("drop sync pass %d: %v", pass, err)
		}
		if code := doJSON(t, http.MethodGet, fts.URL+"/collections/c", nil, nil); code != http.StatusOK {
			t.Fatalf("replica dropped %q after only %d leader listings without it: status %d", "c", pass, code)
		}
	}
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatalf("drop sync: %v", err)
	}
	if code := doJSON(t, http.MethodGet, fts.URL+"/collections/c", nil, nil); code != http.StatusNotFound {
		t.Fatalf("dropped collection still served: status %d", code)
	}
}

// TestFollowerRefusesMassWipe: a leader that suddenly lists zero
// collections while the follower replicates several (the signature of a
// leader restarted against a wrong or empty -data dir) must never cause
// the follower to drop its replica data, no matter how many passes the
// empty listing persists. A deliberate drop of individual collections
// still converges.
func TestFollowerRefusesMassWipe(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	for _, name := range []string{"a", "b"} {
		if code := doJSON(t, http.MethodPut, lts.URL+"/collections/"+name,
			api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
		ingestBatch(t, lts.URL, name, dataset.CorelLike(6, dims, 1))
	}

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}

	// The leader loses everything at once.
	for _, name := range []string{"a", "b"} {
		if code := doJSON(t, http.MethodDelete, lts.URL+"/collections/"+name, nil, nil); code != http.StatusNoContent {
			t.Fatalf("leader drop %s: status %d", name, code)
		}
	}
	for pass := 0; pass < 3*replDropAfterMisses; pass++ {
		if err := fs.SyncReplicaOnce(); err != nil {
			t.Fatalf("sync pass %d: %v", pass, err)
		}
	}
	for _, name := range []string{"a", "b"} {
		if code := doJSON(t, http.MethodGet, fts.URL+"/collections/"+name, nil, nil); code != http.StatusOK {
			t.Fatalf("mass wipe went through: collection %q gone (status %d)", name, code)
		}
	}
}

// TestFollowerWriteFencing: every client mutation on an unpromoted
// follower is refused with 409 read_only_replica; reads keep working.
func TestFollowerWriteFencing(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(8, dims, 1))

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}

	fenced := []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, "/collections/other", api.CreateRequest{Dims: dims}},
		{http.MethodPost, "/collections/c/vectors", api.IngestRequest{Vector: []float64{1, 2, 3, 4}}},
		{http.MethodDelete, "/collections/c/vectors/0", nil},
		{http.MethodPost, "/collections/c/recluster", api.ReclusterRequest{K: 1}},
		{http.MethodDelete, "/collections/c", nil},
		{http.MethodPost, "/collections/c/snapshot", nil},
	}
	for _, f := range fenced {
		var e api.Error
		if code := doJSON(t, f.method, fts.URL+f.path, f.body, &e); code != http.StatusConflict {
			t.Errorf("%s %s: status %d, want 409", f.method, f.path, code)
		} else if e.Code != "read_only_replica" {
			t.Errorf("%s %s: code %q, want read_only_replica", f.method, f.path, e.Code)
		}
	}

	// Reads are not fenced.
	var qr api.QueryResponse
	if code := doJSON(t, http.MethodPost, fts.URL+"/collections/c/query",
		api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3}, &qr); code != http.StatusOK {
		t.Fatalf("follower query: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, fts.URL+"/collections/c/vectors/0", nil, nil); code != http.StatusOK {
		t.Fatalf("follower readback: status %d", code)
	}
}

// TestFollowerPromote: POST /promote flips a caught-up follower into a
// writable leader, idempotently; a node never started with -follow is
// refused with not_replica.
func TestFollowerPromote(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(12, dims, 2))

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}

	var st api.ReplStatus
	if code := doJSON(t, http.MethodPost, fts.URL+"/promote", nil, &st); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if !st.Promoted {
		t.Fatalf("promote response: %+v", st)
	}
	// Idempotent.
	if code := doJSON(t, http.MethodPost, fts.URL+"/promote", nil, nil); code != http.StatusOK {
		t.Fatal("second promote not idempotent")
	}
	// Writable now.
	ingestBatch(t, fts.URL, "c", [][]float64{{9, 9, 9, 9}})
	var stats serverStats
	if code := doJSON(t, http.MethodGet, fts.URL+"/stats", nil, &stats); code != http.StatusOK {
		t.Fatal("stats")
	}
	if stats.Role != "promoted" {
		t.Fatalf("role %q after promote", stats.Role)
	}

	// A plain leader refuses promotion.
	var e api.Error
	if code := doJSON(t, http.MethodPost, lts.URL+"/promote", nil, &e); code != http.StatusConflict || e.Code != "not_replica" {
		t.Fatalf("promote on non-replica: status %d code %q", code, e.Code)
	}
}

// TestFollowerDivergedFenced is the replica-path fencing regression: a
// follower whose local history is not a prefix of the leader's is fenced
// on sync with 409 from the leader, refuses promotion with 409
// replica_diverged, and stays fenced on later syncs — it is never
// silently promoted or silently re-synced.
func TestFollowerDivergedFenced(t *testing.T) {
	const dims = 4
	ls, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(6, dims, 4))

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}

	// Diverge the follower behind the protocol's back: append records the
	// leader never produced, straight into its local collection.
	col, err := fs.cat.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddBatchDurable([][]float64{{5, 5, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	_ = ls

	if err := fs.SyncReplicaOnce(); err == nil {
		t.Fatal("sync with diverged local state succeeded")
	}
	st := fs.ReplStatus()
	if !st.Diverged || st.CaughtUp {
		t.Fatalf("status after divergence: %+v", st)
	}

	var e api.Error
	if code := doJSON(t, http.MethodPost, fts.URL+"/promote", nil, &e); code != http.StatusConflict || e.Code != "replica_diverged" {
		t.Fatalf("promote on diverged replica: status %d code %q", code, e.Code)
	}
	// Still fenced, still refusing — never silently recovered.
	if err := fs.SyncReplicaOnce(); err == nil {
		t.Fatal("later sync silently recovered a diverged replica")
	}
	if code := doJSON(t, http.MethodPost, fts.URL+"/promote", nil, &e); code != http.StatusConflict {
		t.Fatalf("second promote on diverged replica: status %d", code)
	}
	// And it keeps refusing writes too.
	if code := doJSON(t, http.MethodPost, fts.URL+"/collections/c/vectors",
		api.IngestRequest{Vector: []float64{1, 1, 1, 1}}, &e); code != http.StatusConflict || e.Code != "read_only_replica" {
		t.Fatalf("diverged replica accepted a write: status %d code %q", code, e.Code)
	}
}

// TestFollowerRefollowAfterGone: a follower parked at a WAL generation
// the leader has since deleted gets 410 wal_gone and transparently
// re-bootstraps from a fresh snapshot, converging again.
func TestFollowerRefollowAfterGone(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(10, dims, 5))

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}

	// Rotate the leader's WAL past the retention window (the leader keeps
	// the last 8 generation boundaries) while the follower is parked, so
	// its position falls off the end of recorded history.
	for i := 0; i < 10; i++ {
		ingestBatch(t, lts.URL, "c", [][]float64{{float64(i), 1, 2, 3}})
		if code := doJSON(t, http.MethodPost, lts.URL+"/collections/c/snapshot", nil, nil); code != http.StatusOK {
			t.Fatalf("rotation %d: status %d", i, code)
		}
	}

	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatalf("re-follow sync: %v", err)
	}
	st := fs.ReplStatus()
	if !st.CaughtUp || st.Diverged {
		t.Fatalf("status after re-follow: %+v", st)
	}
	queryIdentical(t, lts.URL, fts.URL, "c", api.QuerySpec{Query: []float64{1, 1, 1, 1}, K: 5})
}

// TestFollowerStatsRole: the stats role gauge tracks the follower
// lifecycle, and /replstatus is well-formed on every node kind.
func TestFollowerStatsRole(t *testing.T) {
	_, lts := newTestServer(t, Config{})
	var stats serverStats
	if doJSON(t, http.MethodGet, lts.URL+"/stats", nil, &stats); stats.Role != "single" {
		t.Fatalf("leader role %q", stats.Role)
	}
	var st api.ReplStatus
	if code := doJSON(t, http.MethodGet, lts.URL+"/replstatus", nil, &st); code != http.StatusOK {
		t.Fatal("replstatus on leader")
	}
	if st.Following != "" || st.Promoted {
		t.Fatalf("leader replstatus: %+v", st)
	}

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}
	if doJSON(t, http.MethodGet, fts.URL+"/stats", nil, &stats); stats.Role != "follower" {
		t.Fatalf("follower role %q", stats.Role)
	}
	if stats.Replication == nil || stats.Replication.Following != lts.URL {
		t.Fatalf("follower stats replication block: %+v", stats.Replication)
	}
	if code := doJSON(t, http.MethodGet, fts.URL+"/replstatus", nil, &st); code != http.StatusOK || st.Following != lts.URL {
		t.Fatalf("follower replstatus: %d %+v", code, st)
	}
	if st.Syncs < 1 {
		t.Fatalf("syncs gauge %d", st.Syncs)
	}
}

// TestFollowerMaintenanceNoop: maintenance on an unpromoted follower
// must not compact, recluster, or checkpoint — any of those would fork
// its WAL history from the leader's.
func TestFollowerMaintenanceNoop(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims, SegmentSize: 5}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(20, dims, 6))

	fs, _ := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatal(err)
	}
	compacted, reclustered, checkpointed, err := fs.RunMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if compacted != 0 || reclustered != 0 || checkpointed != 0 {
		t.Fatalf("follower maintenance acted: compact=%d recluster=%d checkpoint=%d",
			compacted, reclustered, checkpointed)
	}
}

// TestFollowerCaughtUpSurvivesLeaderDeath: caught_up is an
// as-of-last-successful-leader-contact assessment. A follower that
// drained the stream and then lost its leader — the exact node failover
// exists to promote — must keep reporting caught_up (with the transport
// error surfaced in last_error), not flip to "lagging" because its sync
// loop can no longer reach a dead process. Regression: the aggregation
// used to clear caught_up on any sync error, so a real deployment's
// background loop made every drained follower unpromotable the moment
// the leader died.
func TestFollowerCaughtUpSurvivesLeaderDeath(t *testing.T) {
	const dims = 4
	_, lts := newTestServer(t, Config{})
	if code := doJSON(t, http.MethodPut, lts.URL+"/collections/c",
		api.CreateRequest{Dims: dims}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ingestBatch(t, lts.URL, "c", dataset.CorelLike(12, dims, 2))

	fs, fts := newFollower(t, lts.URL)
	if err := fs.SyncReplicaOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := fs.ReplStatus(); !st.CaughtUp {
		t.Fatalf("drained follower not caught up: %+v", st)
	}

	lts.Close() // the leader is gone

	// Sync passes now fail with a transport error…
	if err := fs.SyncReplicaOnce(); err == nil {
		t.Fatal("sync against a dead leader succeeded")
	}
	// …which must be reported but must not clear the assessment.
	st := fs.ReplStatus()
	if st.LastError == "" {
		t.Fatal("dead leader not surfaced in last_error")
	}
	if !st.CaughtUp {
		t.Fatalf("drained follower lost caught_up after leader death: %+v", st)
	}
	if cs := st.Collections["c"]; !cs.CaughtUp || cs.LagBytes != 0 {
		t.Fatalf("collection assessment regressed: %+v", cs)
	}
	// Repeated failing passes (the background loop keeps trying) change
	// nothing.
	_ = fs.SyncReplicaOnce()
	if st := fs.ReplStatus(); !st.CaughtUp {
		t.Fatalf("caught_up decayed across failing passes: %+v", st)
	}
	// And the follower is still promotable.
	if code := doJSON(t, http.MethodPost, fts.URL+"/promote", nil, nil); code != http.StatusOK {
		t.Fatalf("promote after leader death: status %d", code)
	}
}

// TestFollowerNeverSyncedNotCaughtUp: the flip side of
// as-of-last-contact — a follower that has never completed one clean
// sync pass has no assessment to preserve and must never report
// caught_up, even though its (empty) collection map contains nothing
// lagging.
func TestFollowerNeverSyncedNotCaughtUp(t *testing.T) {
	_, lts := newTestServer(t, Config{})
	leaderURL := lts.URL
	lts.Close() // dead before the follower's first contact

	fs, _ := newFollower(t, leaderURL)
	if err := fs.SyncReplicaOnce(); err == nil {
		t.Fatal("sync against a dead leader succeeded")
	}
	if st := fs.ReplStatus(); st.CaughtUp {
		t.Fatalf("never-synced follower claims caught_up: %+v", st)
	}
}
