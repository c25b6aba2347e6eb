package plan

// PoolStats is the serializable view of one collection's plan pool: gauges
// over its free lists. A serving layer exposes it on its stats endpoint so
// pool pressure is observable without attaching a debugger.
type PoolStats struct {
	// PooledPlans and PooledScratch count the plans and executor scratch
	// lanes currently parked on the pool's free lists — lanes in flight
	// are checked out, so a busy server shows these dip toward zero.
	PooledPlans   int `json:"pooled_plans"`
	PooledScratch int `json:"pooled_scratch"`
}

// Stats returns the pool's current gauges.
func (pl *Pool) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return PoolStats{PooledPlans: len(pl.plans), PooledScratch: len(pl.lanes)}
}
