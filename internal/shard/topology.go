// Package shard implements bondd's sharded serving layer: a static-
// topology coordinator that spreads one logical collection across N
// bondd nodes and serves the same HTTP API a single node does.
//
// Placement is by vector id. Global id g lives on shard g mod N as that
// shard's local id g div N; ingest assigns global ids round-robin in
// arrival order, so a cluster loaded through the coordinator assigns
// exactly the ids a single node would have — which is what lets the
// chaos suite pin coordinator answers byte-identical to a single-node
// oracle. Queries fan out to every shard and topk.Merge exact-merges the
// per-shard top-k lists with the segment merge's score-then-id tie-break,
// so a healthy cluster is indistinguishable from one big node.
//
// The moment queries cross a network boundary, fault tolerance is the
// product. Every shard call runs inside a robustness envelope: a
// per-shard deadline carved from the request's remaining budget, retries
// with exponential backoff and jitter on transient failures, a hedged
// second request for straggler shards, and a per-shard circuit breaker
// fed by both live traffic and a background health prober. When a shard
// is missed anyway, the coordinator degrades instead of dying — the same
// degrade-don't-die discipline the underlying engine applies to query
// evaluation (tolerance, deadlines), lifted to the cluster layer: under
// the partial policy it returns the exact top-k over the surviving
// shards, marked partial with the missed shard ids; under strict it
// returns a clean, prompt error.
package shard

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
)

// Shard is one node of the static topology.
type Shard struct {
	// ID is the shard's position in the modulo routing: global ids g with
	// g mod N == ID live here. Ids must cover 0..N-1 exactly.
	ID int `json:"id"`
	// URL is the shard's base URL (scheme://host:port), the bondd HTTP
	// API rooted at "/".
	URL string `json:"url"`
	// Replicas are base URLs of bondd followers tailing this shard's WAL
	// (bondd -follow <url>). When the primary's breaker opens, the
	// coordinator promotes the first caught-up replica in listed order and
	// swaps its calls over to it; with read steering enabled, idempotent
	// reads also prefer a caught-up replica.
	Replicas []string `json:"replicas,omitempty"`
}

// Topology is the static shard map the coordinator serves from: shard id
// → base URL, loaded once at startup from a JSON file. Changing the
// topology means restarting the coordinator — deliberately, because the
// modulo placement makes the shard count part of the data layout.
type Topology struct {
	Shards []Shard `json:"shards"`
}

// ParseTopology decodes and validates a topology document.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("shard: parse topology: %w", err)
	}
	if len(t.Shards) == 0 {
		return nil, fmt.Errorf("shard: topology has no shards")
	}
	sort.Slice(t.Shards, func(i, j int) bool { return t.Shards[i].ID < t.Shards[j].ID })
	seenURL := make(map[string]int, len(t.Shards))
	for i, s := range t.Shards {
		if s.ID != i {
			return nil, fmt.Errorf("shard: topology ids must cover 0..%d exactly (got id %d)", len(t.Shards)-1, s.ID)
		}
		u, err := url.Parse(s.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("shard: shard %d has invalid url %q (want scheme://host:port)", s.ID, s.URL)
		}
		if prev, dup := seenURL[s.URL]; dup {
			return nil, fmt.Errorf("shard: shards %d and %d share url %q", prev, s.ID, s.URL)
		}
		seenURL[s.URL] = s.ID
		// Replica URLs share the primaries' namespace: a replica serving two
		// shards (or doubling as a primary) would corrupt both on promotion.
		for _, rep := range s.Replicas {
			ru, err := url.Parse(rep)
			if err != nil || ru.Scheme == "" || ru.Host == "" {
				return nil, fmt.Errorf("shard: shard %d has invalid replica url %q (want scheme://host:port)", s.ID, rep)
			}
			if prev, dup := seenURL[rep]; dup {
				return nil, fmt.Errorf("shard: shard %d replica %q already serves shard %d", s.ID, rep, prev)
			}
			seenURL[rep] = s.ID
		}
	}
	return &t, nil
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read topology: %w", err)
	}
	return ParseTopology(data)
}

// N returns the shard count.
func (t *Topology) N() int { return len(t.Shards) }

// Owner returns the shard owning global id g.
func (t *Topology) Owner(g int) int { return g % len(t.Shards) }

// Local translates global id g into its owner's local id.
func (t *Topology) Local(g int) int { return g / len(t.Shards) }

// Global translates a shard's local id back into the global id space.
func (t *Topology) Global(shard, local int) int { return local*len(t.Shards) + shard }

// LocalLen returns how many of the global ids [0, total) shard s owns —
// the local length a shard in lockstep with the coordinator must have.
func (t *Topology) LocalLen(s, total int) int {
	n := len(t.Shards)
	return (total + n - 1 - s) / n
}
