package core

// SetCarryDisabled makes every search ignore its carried κ (true) or use it
// again (false), so tests can measure what the carry saves.
func SetCarryDisabled(off bool) { carryDisabled = off }
