//go:build race

package api

// raceEnabled reports a -race build, which runs single-goroutine
// property tests on a sample: the detector has nothing to find there.
const raceEnabled = true
