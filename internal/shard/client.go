package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bond/internal/api"
)

// Envelope parameterizes the robustness envelope every shard call runs
// inside: how the request deadline is carved into attempts, how
// transient failures are retried, and when a straggler gets a hedged
// second request.
type Envelope struct {
	// MaxAttempts is the total tries per shard call, first attempt
	// included (default 3). Each attempt's timeout is the call's
	// remaining deadline budget divided by the attempts left, so a call
	// that will be retried never spends its whole budget on try one.
	MaxAttempts int
	// BackoffBase is the first retry's backoff (default 20ms); attempt i
	// waits BackoffBase·2^i, capped at backoffMax, plus up to 100%
	// jitter. A shard answering 503 with a Retry-After hint stretches the
	// wait to honor it, within the deadline.
	BackoffBase time.Duration
	// HedgeAfter launches a second identical request when the first has
	// been in flight this long (0 disables hedging). The first response
	// wins and the loser is cancelled; only idempotent calls (queries,
	// reads) are hedged.
	HedgeAfter time.Duration
}

// backoffMax caps a retry's backoff before jitter.
const backoffMax = 500 * time.Millisecond

func (e Envelope) withDefaults() Envelope {
	if e.MaxAttempts < 1 {
		e.MaxAttempts = 3
	}
	if e.BackoffBase <= 0 {
		e.BackoffBase = 20 * time.Millisecond
	}
	return e
}

// ErrCircuitOpen fast-fails a call to a shard whose breaker is open.
var ErrCircuitOpen = errors.New("shard: circuit open")

// transientError reports whether err is worth retrying: connection
// failures, timeouts, garbage responses, and 5xx/429 statuses are
// transient; other 4xx statuses mean the shard is alive and rejecting
// the request itself, so retrying cannot help.
func transientError(err error) bool {
	var se *api.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == http.StatusTooManyRequests
	}
	return true
}

// maxResponseBytes caps a shard response read; anything bigger than this
// is a protocol violation, not a result.
const maxResponseBytes = 256 << 20

// client is the coordinator's view of one shard: its address plus the
// robustness state (breaker, counters) and the envelope mechanics.
type client struct {
	shard Shard
	hc    *http.Client
	env   Envelope
	brk   *Breaker

	// active is the base URL calls are served from. It starts at the
	// primary's URL and is swapped by a failover promotion; everything the
	// envelope does (attempts, hedges, probes) reads it per round trip, so
	// a promotion redirects in-flight retries too.
	active atomic.Pointer[string]
	// steer is a caught-up replica's base URL idempotent reads prefer
	// (nil = read from active). Only the prober writes it, and only when
	// the coordinator has ReadReplicas on; a failed steered attempt clears
	// it so retries and later calls fall back to the primary.
	steer atomic.Pointer[string]

	// promoMu guards candidates — the replicas not yet promoted or ruled
	// out (diverged / fenced). The prober's promotion pass is the only
	// consumer.
	promoMu    sync.Mutex
	candidates []string

	healthy atomic.Bool

	requests   atomic.Int64 // calls attempted (excluding breaker fast-fails)
	retries    atomic.Int64 // extra attempts after a transient failure
	hedges     atomic.Int64 // hedged second requests launched
	hedgeWins  atomic.Int64 // hedges that answered before the primary
	failures   atomic.Int64 // calls that exhausted the envelope
	fastFails  atomic.Int64 // calls rejected by an open breaker
	probes     atomic.Int64 // health probes sent
	probeFail  atomic.Int64 // health probes failed
	promotions atomic.Int64 // replica promotions performed
	steered    atomic.Int64 // idempotent reads steered to a replica
}

func newClient(s Shard, hc *http.Client, env Envelope, brk *Breaker) *client {
	c := &client{shard: s, hc: hc, env: env.withDefaults(), brk: brk}
	c.active.Store(&s.URL)
	c.candidates = append([]string(nil), s.Replicas...)
	c.healthy.Store(true) // optimistic until the first probe says otherwise
	return c
}

// activeURL returns the base URL this shard's calls currently target.
func (c *client) activeURL() string { return *c.active.Load() }

// call performs one logical API call against the shard inside the full
// envelope. body, of media type ctype, is re-sent verbatim on every
// attempt; a 2xx response is decoded into out (when non-nil). hedge marks
// the call idempotent and therefore hedgeable.
func (c *client) call(ctx context.Context, method, path, ctype string, body []byte, out any, hedge bool) error {
	if !c.brk.Allow() {
		c.fastFails.Add(1)
		return fmt.Errorf("shard %d (%s): %w", c.shard.ID, c.activeURL(), ErrCircuitOpen)
	}
	c.requests.Add(1)
	var lastErr error
	for attempt := 0; attempt < c.env.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		// Idempotent reads may steer to a caught-up replica on the first
		// attempt; retries always go to the active node, so a flaky replica
		// costs at most one attempt.
		base, steered := c.activeURL(), false
		if hedge && attempt == 0 {
			if s := c.steer.Load(); s != nil {
				base, steered = *s, true
				c.steered.Add(1)
			}
		}
		raw, err := c.attempt(ctx, base, method, path, ctype, body, hedge, attempt)
		if err == nil {
			if out != nil {
				if derr := api.Unmarshal(raw.B, out); derr != nil {
					// A 2xx with an undecodable body is a garbage-responding
					// shard: as transient as a 500 — the retry may land on a
					// recovered process.
					err = fmt.Errorf("shard %d: garbage response: %w", c.shard.ID, derr)
				}
			}
			raw.Release()
		}
		if err == nil {
			if !steered {
				c.brk.Success()
			}
			return nil
		}
		lastErr = err
		if steered {
			// The replica failed, not the primary: clear the steering so
			// later reads go back to the active node, and keep the breaker
			// out of it.
			c.steer.Store(nil)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if !transientError(err) {
			// The shard is alive and made a decision; that is a healthy
			// signal for the breaker even though the call failed.
			c.brk.Success()
			return fmt.Errorf("shard %d: %w", c.shard.ID, err)
		}
		c.brk.Failure()
		if ctx.Err() != nil || attempt == c.env.MaxAttempts-1 {
			break
		}
		if !c.backoff(ctx, attempt, lastErr) {
			break
		}
	}
	c.failures.Add(1)
	return fmt.Errorf("shard %d (%s): %w", c.shard.ID, c.activeURL(), lastErr)
}

// backoff sleeps the jittered exponential backoff for the given attempt,
// stretched to any Retry-After hint the failure carried. It returns
// false when the context ends first.
func (c *client) backoff(ctx context.Context, attempt int, cause error) bool {
	d := min(c.env.BackoffBase<<attempt, backoffMax)
	d += time.Duration(rand.Int63n(int64(d) + 1)) // full jitter on top
	var se *api.StatusError
	if errors.As(cause, &se) && se.RetryAfterMs > 0 {
		if hint := time.Duration(se.RetryAfterMs) * time.Millisecond; hint > d {
			d = hint
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); d > remaining {
			// Sleeping past the deadline guarantees failure; give the
			// final attempt whatever budget is left instead.
			d = remaining / 2
		}
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attempt runs one (possibly hedged) attempt under the carved slice of
// the call's remaining deadline: remaining budget divided by attempts
// left, so early attempts cannot starve later ones.
func (c *client) attempt(ctx context.Context, base, method, path, ctype string, body []byte, hedge bool, attempt int) (*api.Body, error) {
	attemptCtx := ctx
	var cancel context.CancelFunc
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, context.DeadlineExceeded
		}
		slice := remaining / time.Duration(c.env.MaxAttempts-attempt)
		attemptCtx, cancel = context.WithTimeout(ctx, slice)
		defer cancel()
	}
	hedgeAfter := c.env.HedgeAfter
	if !hedge || hedgeAfter <= 0 {
		return c.roundTrip(attemptCtx, base, method, path, ctype, body)
	}
	return c.hedged(attemptCtx, base, method, path, ctype, body, hedgeAfter)
}

// hedged races the primary request against a second one launched after
// hedgeAfter of silence. The first success wins and cancels the loser;
// if both fail the primary's error is reported.
func (c *client) hedged(ctx context.Context, base, method, path, ctype string, body []byte, hedgeAfter time.Duration) (*api.Body, error) {
	type outcome struct {
		raw    *api.Body
		err    error
		hedged bool
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the loser
	results := make(chan outcome, 2)
	launch := func(hedged bool) {
		go func() {
			raw, err := c.roundTrip(ctx, base, method, path, ctype, body)
			results <- outcome{raw: raw, err: err, hedged: hedged}
		}()
	}
	launch(false)
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	inFlight := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if inFlight == 1 {
				c.hedges.Add(1)
				launch(true)
				inFlight++
			}
		case o := <-results:
			if o.err == nil {
				if o.hedged {
					c.hedgeWins.Add(1)
				}
				return o.raw, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			inFlight--
			if inFlight == 0 {
				return nil, firstErr
			}
			// One attempt failed fast while the other is still out; let
			// the survivor decide the outcome. If the hedge timer has not
			// fired yet it still can, keeping two in flight again.
		}
	}
}

// roundTrip performs one HTTP exchange, sending body (if any) as ctype:
// 2xx returns the raw body in a pooled buffer the caller releases, non-2xx
// an *api.StatusError carrying the structured error body when present,
// wrapped as "shard answered N".
func (c *client) roundTrip(ctx context.Context, base, method, path, ctype string, body []byte) (*api.Body, error) {
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := api.ReadBody(io.LimitReader(resp.Body, maxResponseBytes), resp.ContentLength)
	if err != nil {
		raw.Release()
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &api.StatusError{Status: resp.StatusCode, Msg: http.StatusText(resp.StatusCode)}
		var e api.Error
		if json.Unmarshal(raw.B, &e) == nil {
			se.Msg, se.Code, se.RetryAfterMs = e.Error, e.Code, e.RetryAfterMs
		}
		raw.Release()
		return nil, fmt.Errorf("shard answered %d: %w", resp.StatusCode, se)
	}
	return raw, nil
}

// probe performs one health-probe round trip to /healthz (outside the
// envelope: no retries, no hedging — the prober's cadence is the retry)
// and feeds the outcome to the breaker and the health gauge.
func (c *client) probe(ctx context.Context, timeout time.Duration) bool {
	c.probes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	raw, err := c.roundTrip(pctx, c.activeURL(), http.MethodGet, "/healthz", "", nil)
	if err != nil {
		c.probeFail.Add(1)
		c.healthy.Store(false)
		c.brk.Failure()
		return false
	}
	raw.Release()
	c.healthy.Store(true)
	c.brk.Success()
	return true
}
