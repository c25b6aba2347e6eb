// Package api is the bondd HTTP API, written once for both of its
// backends: the single-node serving layer (internal/server) and the
// sharded coordinator (internal/shard). It holds the JSON wire types both
// speak, the one codec both read and write them with (codec.go), and the
// one handler set both serve through (serve.go): the route table, body
// decoding under the size cap, the request-shape checks and the error
// writer. A backend only answers decoded, checked requests (Backend).
// That is what makes the coordinator transparent: it accepts exactly the
// single-node shapes, refuses a bad one with the single node's words,
// fans good ones out to shards speaking the same shapes, and responds in
// kind (plus the degradation fields Partial and MissedShards, which a
// single node never sets).
package api

// Error is the structured error body every non-2xx response carries.
// Code is a stable machine-readable cause ("overloaded", "not_ready",
// "deadline", "shard_unavailable", "topology_drift", …; empty for plain
// validation errors); RetryAfterMs, when non-zero, tells the client the
// failure is transient and how long to back off before retrying — the
// coordinator's retry envelope honors it, as does the Retry-After header
// mirroring it.
type Error struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMs int    `json:"retry_after_ms,omitempty"`
	// MissedShards names the shards whose data a strict-mode coordinator
	// error is about (only the coordinator sets it).
	MissedShards []int `json:"missed_shards,omitempty"`
}

// CreateRequest is the body of PUT /collections/{name}.
type CreateRequest struct {
	Dims        int `json:"dims"`
	SegmentSize int `json:"segment_size,omitempty"`
}

// CreateResponse acknowledges a create.
type CreateResponse struct {
	Name    string `json:"name"`
	Dims    int    `json:"dims"`
	Created bool   `json:"created"`
}

// IngestRequest is the body of POST /collections/{name}/vectors. Vector
// ingests one vector; Vectors a batch. Exactly one must be set.
type IngestRequest struct {
	Vector  []float64   `json:"vector,omitempty"`
	Vectors [][]float64 `json:"vectors,omitempty"`
}

// IngestResponse acknowledges an ingest. FirstID is the id of the first
// ingested vector; the batch occupies ids [FirstID, FirstID+Count). Ids
// are positional and are remapped when background compaction rewrites
// tombstoned segments.
type IngestResponse struct {
	FirstID int `json:"first_id"`
	Count   int `json:"count"`
}

// QuerySpec is the HTTP shape of bond.QuerySpec. Either Query (the
// vector itself) or ID (query-by-example: use the stored vector with
// that id) must be set.
type QuerySpec struct {
	Query     []float64 `json:"query,omitempty"`
	ID        *int      `json:"id,omitempty"`
	K         int       `json:"k"`
	Criterion string    `json:"criterion,omitempty"`
	Order     string    `json:"order,omitempty"`
	Step      int       `json:"step,omitempty"`
	Weights   []float64 `json:"weights,omitempty"`
	Dims      []int     `json:"dims,omitempty"`
	Strategy  string    `json:"strategy,omitempty"`
	Tolerance float64   `json:"tolerance,omitempty"`
	// TimeoutMs maps onto QuerySpec.Deadline relative to request arrival.
	// On the coordinator it is the whole fan-out's budget; the remaining
	// slice is forwarded to each shard.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Policy overrides the coordinator's degradation policy for this
	// query: "strict" (any shard miss is an error) or "partial" (top-k
	// over surviving shards, marked Partial). Empty uses the
	// coordinator's configured default; a single node ignores it.
	Policy string `json:"policy,omitempty"`
}

// Neighbor is one scored match.
type Neighbor struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// QueryStats summarizes the work a query performed (summed across
// shards by the coordinator).
type QueryStats struct {
	ValuesScanned    int64 `json:"values_scanned"`
	FinalCandidates  int   `json:"final_candidates"`
	SegmentsSearched int   `json:"segments_searched"`
	SegmentsSkipped  int   `json:"segments_skipped"`
}

// QueryResponse is the body of POST /collections/{name}/query. Partial
// and MissedShards are set only by a coordinator degrading under shard
// loss: the results then cover the surviving shards only.
type QueryResponse struct {
	Results   []Neighbor `json:"results"`
	Stats     QueryStats `json:"stats"`
	Truncated bool       `json:"truncated,omitempty"`
	Partial   bool       `json:"partial,omitempty"`
	// MissedShards lists the shard ids whose answers are absent from a
	// partial response.
	MissedShards []int `json:"missed_shards,omitempty"`
}

// BatchRequest is the body of POST /collections/{name}/query/batch.
type BatchRequest struct {
	Queries []QuerySpec `json:"queries"`
}

// BatchResponse carries one QueryResponse per batch query, in order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// ExplainResponse is the body of GET and POST /collections/{name}/explain:
// the query's answer plus Plan, Plan.Explain's rendering of the
// per-segment access path with predicted and actual cost.
type ExplainResponse struct {
	QueryResponse
	Plan string `json:"plan"`
}

// ReclusterRequest parameterizes a manual recluster; the body may be
// empty. K ≤ 0 selects one cluster per segment-size of live sealed
// vectors; Seed fixes the k-means initialization (default 1).
type ReclusterRequest struct {
	K    int    `json:"k,omitempty"`
	Seed *int64 `json:"seed,omitempty"`
}

// ReclusterResponse reports a manual recluster.
type ReclusterResponse struct {
	// Reclustered is false when there was nothing to rewrite (no sealed
	// segment with live vectors), in which case nothing was logged.
	Reclustered bool `json:"reclustered"`
	// SpreadBefore/SpreadAfter are the sealed synopsis-spread gauge around
	// the rewrite (0 when unmeasurable); Segments the segment count after.
	SpreadBefore float64 `json:"spread_before"`
	SpreadAfter  float64 `json:"spread_after"`
	Segments     int     `json:"segments"`
}

// VectorResponse is the body of GET /collections/{name}/vectors/{id}.
type VectorResponse struct {
	ID     int       `json:"id"`
	Vector []float64 `json:"vector"`
}

// ReplCollection is one collection's replication gauges on a follower:
// its own stream position, the leader position it last saw, and whether
// it has applied everything the leader had at last contact.
type ReplCollection struct {
	Seq       uint64 `json:"seq"`
	Off       int64  `json:"off"`
	LeaderSeq uint64 `json:"leader_seq"`
	LeaderOff int64  `json:"leader_off"`
	LagBytes  int64  `json:"lag_bytes"`
	CaughtUp  bool   `json:"caught_up"`
	Diverged  bool   `json:"diverged"`
	LastError string `json:"last_error,omitempty"`
}

// ReplStatus is the body of GET /replstatus — a follower's self-report,
// and the evidence the coordinator's prober demands before promoting
// it. CaughtUp is as of the last successful leader contact: a follower
// that fully drained the stream before the leader died keeps reporting
// true (it is safe to promote), while one that was lagging reports
// false forever (promoting it would lose acknowledged writes).
type ReplStatus struct {
	// Following is the leader base URL; empty on a node that was never a
	// follower.
	Following string `json:"following,omitempty"`
	// Promoted is set once POST /promote succeeded; the node then
	// accepts writes and no longer tails.
	Promoted bool  `json:"promoted"`
	CaughtUp bool  `json:"caught_up"`
	Diverged bool  `json:"diverged"`
	LagBytes int64 `json:"lag_bytes"`
	// Syncs counts completed sync passes; LastSyncUnixMs stamps the last
	// successful one.
	Syncs          int64                     `json:"syncs"`
	LastSyncUnixMs int64                     `json:"last_sync_unix_ms,omitempty"`
	LastError      string                    `json:"last_error,omitempty"`
	Collections    map[string]ReplCollection `json:"collections,omitempty"`
}
