package shard

import (
	"context"
	"sync"
	"time"
)

// proberLoop is the background health prober: every interval it probes
// each shard's health endpoint concurrently, feeding outcomes into the
// per-shard breakers and health gauges. It is what lets an idle
// coordinator notice a shard dying (the breaker opens before the next
// request pays a connect timeout) and a dead shard coming back (the
// breaker closes without waiting for live traffic to trial it).
func (co *Coordinator) proberLoop(interval time.Duration) {
	defer close(co.proberDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			co.ProbeNow()
		}
	}
}

// ProbeNow probes every shard once, concurrently, and returns how many
// answered healthy. The prober loop calls it on its ticker; tests call
// it directly to advance health state deterministically.
//
// The probe round is also where failover happens: when a shard's probe
// fails while its breaker is open — live traffic and probes have both
// given up on the primary — and the config allows promotion, the round
// tries to promote one of the shard's caught-up replicas in its place
// (see maybePromote). With read steering on, the round also repoints
// each healthy shard's idempotent reads at a caught-up replica.
func (co *Coordinator) ProbeNow() int {
	timeout := co.cfg.ProbeInterval
	if timeout <= 0 || timeout > time.Second {
		timeout = time.Second
	}
	var wg sync.WaitGroup
	healthy := make([]bool, len(co.clients))
	for i, c := range co.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			ok := c.probe(context.Background(), timeout)
			if !ok && co.cfg.PromoteReplicas && c.brk.State() == "open" {
				ok = co.maybePromote(context.Background(), c, timeout)
			}
			if co.cfg.ReadReplicas {
				co.refreshSteer(context.Background(), c, timeout)
			}
			healthy[i] = ok
		}(i, c)
	}
	wg.Wait()
	n := 0
	for _, ok := range healthy {
		if ok {
			n++
		}
	}
	return n
}
