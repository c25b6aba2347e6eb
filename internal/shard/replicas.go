package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"bond/internal/api"
)

// This file is the coordinator's side of WAL-shipped replication:
// deciding when a shard's follower replicas are safe to read from and,
// when the primary is gone for good (probe failed AND breaker open),
// promoting one to primary instead of degrading every fan-out.
//
// The safety rule is delegated to the follower's own self-report
// (GET /replstatus): a replica is promotable only while it says
// CaughtUp && !Diverged. CaughtUp is as-of-last-leader-contact, so a
// follower that drained the stream before the leader died keeps
// reporting true, while one that was lagging reports false forever —
// promoting it would silently drop acknowledged writes, which is
// exactly the failure mode the crash suite pins down. The follower
// double-checks on POST /promote and answers 409 if it cannot promote
// safely; the coordinator treats that as a veto, drops the candidate,
// and keeps degrading.
//
// Failover is single-shot per shard: a successful promotion discards
// every other candidate. The siblings still tail the DEAD original
// primary — nothing re-points them at the promoted node — so their
// sticky caught-up self-reports describe a history that forks from the
// new primary's the moment it acknowledges a write. If the promoted
// node dies too, the shard degrades; cascaded failover is left to an
// operator who has re-pointed followers at the new primary.

// fetchReplStatus reads a replica's self-report, outside the envelope
// (the prober's cadence is the retry).
func (c *client) fetchReplStatus(ctx context.Context, base string, timeout time.Duration) (*api.ReplStatus, error) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	raw, err := c.roundTrip(pctx, base, http.MethodGet, "/replstatus", "", nil)
	if err != nil {
		return nil, err
	}
	defer raw.Release()
	var st api.ReplStatus
	if err := json.Unmarshal(raw.B, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// maybePromote tries to fail the shard over to one of its replicas, in
// listed order. Diverged or fenced (409) replicas are dropped for good;
// unreachable or lagging ones stay candidates for the next probe round.
// On success the shard's active URL swaps to the promoted follower, the
// breaker closes, and the shard is healthy again — the fan-out path
// never knew. The remaining candidates are discarded too: they follow
// the old primary, not the promoted one, and keeping them would set up
// a later promotion that silently rewinds past everything the new
// primary acknowledged.
func (co *Coordinator) maybePromote(ctx context.Context, c *client, timeout time.Duration) bool {
	c.promoMu.Lock()
	defer c.promoMu.Unlock()
	var promoted string
	var rest []string
	for i, rep := range c.candidates {
		st, err := c.fetchReplStatus(ctx, rep, timeout)
		if err != nil {
			rest = append(rest, rep) // unreachable: retry next probe round
			continue
		}
		if st.Diverged {
			co.logf("coordinator: shard %d replica %s diverged, never promoting it", c.shard.ID, rep)
			continue // dropped
		}
		if st.Promoted {
			// A previous promotion succeeded but the ack was lost: adopt it.
			promoted = rep
			rest = append(rest, c.candidates[i+1:]...)
			break
		}
		if !st.CaughtUp {
			co.logf("coordinator: shard %d replica %s lagging (%d bytes), not promotable", c.shard.ID, rep, st.LagBytes)
			rest = append(rest, rep)
			continue
		}
		if err := c.promoteReplica(ctx, rep, timeout); err != nil {
			var se *api.StatusError
			if errors.As(err, &se) && se.Status == http.StatusConflict {
				// The follower vetoed its own promotion (diverged or fenced
				// in the meantime): drop it.
				co.logf("coordinator: shard %d replica %s refused promotion: %v", c.shard.ID, rep, err)
				continue
			}
			rest = append(rest, rep)
			continue
		}
		promoted = rep
		rest = append(rest, c.candidates[i+1:]...)
		break
	}
	if promoted == "" {
		c.candidates = rest
		return false
	}
	// rest holds the siblings that would have stayed candidates. They
	// tail the dead original primary, so from here on their caught-up
	// reports are about the wrong history: drop them all and degrade if
	// the new primary dies, rather than cascade onto stale state.
	if len(rest) > 0 {
		co.logf("coordinator: shard %d dropping stale replicas %v — they follow the old primary, not %s; re-point and re-follow to restore redundancy", c.shard.ID, rest, promoted)
	}
	c.candidates = nil
	c.active.Store(&promoted)
	c.steer.Store(nil)
	c.promotions.Add(1)
	c.brk.Success()
	c.healthy.Store(true)
	co.logf("coordinator: promoted replica %s to primary for shard %d", promoted, c.shard.ID)
	return true
}

// promoteReplica issues the POST /promote handshake.
func (c *client) promoteReplica(ctx context.Context, base string, timeout time.Duration) error {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	raw, err := c.roundTrip(pctx, base, http.MethodPost, "/promote", "", nil)
	if err != nil {
		return err
	}
	raw.Release()
	return nil
}

// refreshSteer repoints the shard's read steering at its first
// caught-up, undiverged, unpromoted replica — or clears it when none
// qualifies. Steering is disabled once a promotion has moved the active
// URL off the primary: the leftover replicas still follow the dead old
// leader and would serve reads that miss every post-failover write.
func (co *Coordinator) refreshSteer(ctx context.Context, c *client, timeout time.Duration) {
	if c.activeURL() != c.shard.URL {
		c.steer.Store(nil)
		return
	}
	c.promoMu.Lock()
	candidates := append([]string(nil), c.candidates...)
	c.promoMu.Unlock()
	for _, rep := range candidates {
		st, err := c.fetchReplStatus(ctx, rep, timeout)
		if err != nil || st.Promoted || st.Diverged || !st.CaughtUp {
			continue
		}
		rep := rep
		c.steer.Store(&rep)
		return
	}
	c.steer.Store(nil)
}
