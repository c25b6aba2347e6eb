//go:build amd64 && !purego

package api

// shortRun is shortRunGo in SSE2 assembly (floats_amd64.s), which every
// amd64 processor runs: it returns exactly what shortRunGo returns.
//
//go:noescape
func shortRun(data []byte, i int, out []float64) (n, end int)
