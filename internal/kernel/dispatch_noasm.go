//go:build !amd64 || purego

package kernel

// hasAVX2 is a compile-time false here, so every dispatch branch in
// kernel.go folds away and the stubs below are dead code the linker
// drops — they exist only so the wrappers compile on every platform.
const hasAVX2 = false

func accWSqDistAVX2(score, col *float64, cands *int, n int, qd, w float64) {
	panic("kernel: SIMD stub called")
}

func accWSqDistTailsAVX2(score, tails, col *float64, cands *int, n int, qd, w float64) {
	panic("kernel: SIMD stub called")
}

func accMinQTailsAVX2(score, tails, col *float64, cands *int, n int, qd float64) {
	panic("kernel: SIMD stub called")
}

func accWMinQAVX2(score, col *float64, cands *int, n int, qd, w float64) {
	panic("kernel: SIMD stub called")
}

func accCodeBoundsAVX2(sLo, sHi *float64, codes *uint8, cands *int, n int, tLo, tHi *[256]float64) {
	panic("kernel: SIMD stub called")
}

func vaRowSumAVX2(tbl *float64, row *uint8, n int, out *[4]float64) {
	panic("kernel: SIMD stub called")
}

func sqDistAVX2(v, q *float64, n int, out *[4]float64) {
	panic("kernel: SIMD stub called")
}

func accSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64) {
	panic("kernel: SIMD stub called")
}

func accSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64) {
	panic("kernel: SIMD stub called")
}

func accWSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64) {
	panic("kernel: SIMD stub called")
}

func accWSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q, w *float64) {
	panic("kernel: SIMD stub called")
}

func accMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64) {
	panic("kernel: SIMD stub called")
}

func accMinQTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64) {
	panic("kernel: SIMD stub called")
}

func accWMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64) {
	panic("kernel: SIMD stub called")
}

func keepAtMostAVX2(score *float64, n int, limit, dead float64) int {
	panic("kernel: SIMD stub called")
}

func keepReachingAVX2(score *float64, n int, allow, floor, dead float64) int {
	panic("kernel: SIMD stub called")
}

func laneMaxAVX2(lanes *[SelectLanes]float64, xs *float64, n int, sign uint64) {
	panic("kernel: SIMD stub called")
}

func sortLanesAVX2(lanes *[SelectLanes]float64) {
	panic("kernel: SIMD stub called")
}

func selectAtLeastAVX2(dst *float64, room int, xs *float64, n int, floor float64, sign uint64) (written, consumed int) {
	panic("kernel: SIMD stub called")
}

func compactLiveAVX2(cands *int, score *float64, n int, dead uint64) int {
	panic("kernel: SIMD stub called")
}

func compactLiveTailsAVX2(cands *int, score, tails *float64, n int, dead uint64) int {
	panic("kernel: SIMD stub called")
}

func compactReachingAVX2(cands *int, score *float64, from, n, out int, allow, floor float64) int {
	panic("kernel: SIMD stub called")
}

func compactAtMostAVX2(cands *int, score *float64, from, n, out int, limit float64) int {
	panic("kernel: SIMD stub called")
}
