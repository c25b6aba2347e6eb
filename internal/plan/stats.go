package plan

// ModelStats is the serializable view of one collection's adaptive cost
// model: the learned coefficients the planner predicts from (the same
// block Save persists) plus gauges over the model's pooled execution
// lanes. A serving layer exposes it on its stats endpoint so
// predicted-vs-actual drift and pool pressure are observable without
// attaching a debugger.
type ModelStats struct {
	Coefficients
	// PooledPlans and PooledScratch count the plans and executor scratch
	// lanes currently parked on the model's free lists — lanes in flight
	// are checked out, so a busy server shows these dip toward zero.
	PooledPlans   int `json:"pooled_plans"`
	PooledScratch int `json:"pooled_scratch"`
}

// Stats returns the serializable view of the model's current state.
func (m *Model) Stats() ModelStats {
	s := ModelStats{Coefficients: m.Snapshot()}
	m.poolMu.Lock()
	s.PooledPlans = len(m.plans)
	s.PooledScratch = len(m.lanes)
	m.poolMu.Unlock()
	return s
}
