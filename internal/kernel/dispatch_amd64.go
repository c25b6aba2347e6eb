//go:build amd64 && !purego

package kernel

// hasAVX2 is decided once at init: the exported kernels dispatch on it to
// the assembly in kernel_amd64.s. Detection follows the architectural
// checklist — AVX2 alone is not enough, the OS must have enabled saving
// the ymm state (OSXSAVE + XCR0 bits 1 and 2), or the registers are
// silently truncated on context switch.
var hasAVX2 = detectAVX2()

// cpuid and xgetbv0 are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be set by the
	// operating system before ymm registers survive a context switch.
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// The assembly kernels. Every slice has been length-checked by the
// wrapper; n is the number of slots to process and is a multiple of 4
// (the wrapper runs the remainder in scalar Go). The Acc* gather kernels
// preserve the scalar loops' one-addition-per-slot-per-column order and
// are bit-identical to them; the dense kernel returns four lane partials
// for the wrapper to reduce like its scalar accumulators.

//go:noescape
func accSqDistAVX2(score, col *float64, cands *int, n int, qd float64)

//go:noescape
func accSqDistTailsAVX2(score, tails, col *float64, cands *int, n int, qd float64)

//go:noescape
func accWSqDistAVX2(score, col *float64, cands *int, n int, qd, w float64)

//go:noescape
func accWSqDistTailsAVX2(score, tails, col *float64, cands *int, n int, qd, w float64)

//go:noescape
func accMinQAVX2(score, col *float64, cands *int, n int, qd float64)

//go:noescape
func accMinQTailsAVX2(score, tails, col *float64, cands *int, n int, qd float64)

//go:noescape
func accWMinQAVX2(score, col *float64, cands *int, n int, qd, w float64)

//go:noescape
func accCodeBoundsAVX2(sLo, sHi *float64, codes *uint8, cands *int, n int, tLo, tHi *[256]float64)

//go:noescape
func vaRowSumAVX2(tbl *float64, row *uint8, n int, out *[4]float64)

//go:noescape
func sqDistAVX2(v, q *float64, n int, out *[4]float64)

// The run kernels (see run.go): cols points at the first of ncols slice
// headers, every one of which the wrapper has checked to cover n rows; q
// and w hold ncols values.

//go:noescape
func accSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64)

//go:noescape
func accSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64)

//go:noescape
func accWSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64)

//go:noescape
func accWSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q, w *float64)

//go:noescape
func accMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64)

//go:noescape
func accMinQTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64)

//go:noescape
func accWMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64)

//go:noescape
func keepAtMostAVX2(score *float64, n int, limit, dead float64) int

//go:noescape
func keepReachingAVX2(score *float64, n int, allow, floor, dead float64) int

// The pruning-step kernels (see prune.go and prune_amd64.s).

//go:noescape
func laneMaxAVX2(lanes *[SelectLanes]float64, xs *float64, n int, sign uint64)

//go:noescape
func sortLanesAVX2(lanes *[SelectLanes]float64)

//go:noescape
func selectAtLeastAVX2(dst *float64, room int, xs *float64, n int, floor float64, sign uint64) (written, consumed int)

//go:noescape
func compactLiveAVX2(cands *int, score *float64, n int, dead uint64) int

//go:noescape
func compactLiveTailsAVX2(cands *int, score, tails *float64, n int, dead uint64) int

//go:noescape
func compactReachingAVX2(cands *int, score *float64, from, n, out int, allow, floor float64) int

//go:noescape
func compactAtMostAVX2(cands *int, score *float64, from, n, out int, limit float64) int
