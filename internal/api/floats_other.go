//go:build !amd64 || purego

package api

// shortRun is shortRunGo where there is no assembly version.
func shortRun(data []byte, i int, out []float64) (n, end int) {
	return shortRunGo(data, i, out)
}
