//go:build amd64 && !purego

#include "textflag.h"

// AVX2 variants of the pruning-step kernels (see prune.go). The shared
// conventions of kernel_amd64.s hold: n is a multiple of 4 and the Go
// wrapper runs the remainder; VZEROUPPER before every RET.
//
// Compress-store: VMOVMSKPD turns a 4-lane compare into a 4-bit mask m,
// VPMOVZXBD widens row m of compress<> into VPERMD indices, and VPERMD
// moves the selected float64/int64 lanes to the front in lane order. All
// four lanes are stored unaligned at the output cursor, which then advances
// by popcount(m): the lanes past it are overwritten by the next store or
// lie beyond the result. No branch depends on a lane's value; the only
// data-dependent branch skips an 8-row block of the compaction with no live
// row (see COMPACT_BODY).

// compress<> row m (8 bytes): the dword indices 2j, 2j+1 of every lane j
// whose bit is set in m, in lane order, then zeros — lanes never counted.
// Row 0 is all zeros, left to the GLOBL's zero fill.
DATA compress<>+8(SB)/8, $0x0000000000000100
DATA compress<>+16(SB)/8, $0x0000000000000302
DATA compress<>+24(SB)/8, $0x0000000003020100
DATA compress<>+32(SB)/8, $0x0000000000000504
DATA compress<>+40(SB)/8, $0x0000000005040100
DATA compress<>+48(SB)/8, $0x0000000005040302
DATA compress<>+56(SB)/8, $0x0000050403020100
DATA compress<>+64(SB)/8, $0x0000000000000706
DATA compress<>+72(SB)/8, $0x0000000007060100
DATA compress<>+80(SB)/8, $0x0000000007060302
DATA compress<>+88(SB)/8, $0x0000070603020100
DATA compress<>+96(SB)/8, $0x0000000007060504
DATA compress<>+104(SB)/8, $0x0000070605040100
DATA compress<>+112(SB)/8, $0x0000070605040302
DATA compress<>+120(SB)/8, $0x0706050403020100
GLOBL compress<>(SB), RODATA|NOPTR, $128

// rowiota<>: the row ids 0–3 of the first block, as int64 lanes.
DATA rowiota<>+0(SB)/8, $0
DATA rowiota<>+8(SB)/8, $1
DATA rowiota<>+16(SB)/8, $2
DATA rowiota<>+24(SB)/8, $3
GLOBL rowiota<>(SB), RODATA|NOPTR, $32

// func laneMaxAVX2(lanes *[32]float64, xs *float64, n int, sign uint64)
//
// Eight accumulators, starting at −Inf, are the 32 lanes: element i of the
// first n&^31 goes to lane i mod 32, each later block of 4 to lanes 0–3.
// Each element is XORed with sign first (a negation when sign is the sign
// bit). lanes is only written.
TEXT ·laneMaxAVX2(SB), NOSPLIT, $0-32
	MOVQ         lanes+0(FP), DI
	MOVQ         xs+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD sign+24(FP), Y15
	MOVQ         $0xfff0000000000000, AX // −Inf
	VMOVQ        AX, X0                   // VEX-encoded: no SSE/AVX transition
	VPBROADCASTQ X0, Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3
	VMOVAPD      Y0, Y4
	VMOVAPD      Y0, Y5
	VMOVAPD      Y0, Y6
	VMOVAPD      Y0, Y7

lm32:
	CMPQ   CX, $32
	JLT    lm4
	VXORPD 0(SI), Y15, Y8
	VMAXPD Y8, Y0, Y0
	VXORPD 32(SI), Y15, Y9
	VMAXPD Y9, Y1, Y1
	VXORPD 64(SI), Y15, Y10
	VMAXPD Y10, Y2, Y2
	VXORPD 96(SI), Y15, Y11
	VMAXPD Y11, Y3, Y3
	VXORPD 128(SI), Y15, Y12
	VMAXPD Y12, Y4, Y4
	VXORPD 160(SI), Y15, Y13
	VMAXPD Y13, Y5, Y5
	VXORPD 192(SI), Y15, Y14
	VMAXPD Y14, Y6, Y6
	VXORPD 224(SI), Y15, Y8
	VMAXPD Y8, Y7, Y7
	ADDQ   $256, SI
	SUBQ   $32, CX
	JMP    lm32

lm4:
	TESTQ  CX, CX
	JZ     lmdone
	VXORPD (SI), Y15, Y8
	VMAXPD Y8, Y0, Y0
	ADDQ   $32, SI
	SUBQ   $4, CX
	JMP    lm4

lmdone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// The sorting network of sortLanesAVX2, descending. CE(a, b, t) is one
// compare-exchange between two registers, lane by lane: a gets the max, b
// the min. HALF2 and HALF1 compare-exchange inside one register at distance
// 2 (lanes 0–2, 1–3) and 1 (0–1, 2–3), lower lane the max. REV reverses a
// register's four lanes.
#define CE(a, b, t) \
	VMAXPD  b, a, t; \
	VMINPD  b, a, b; \
	VMOVAPD t, a

#define HALF2(x, t, u) \
	VPERM2F128 $0x01, x, x, t; \
	VMAXPD     t, x, u; \
	VMINPD     t, x, t; \
	VBLENDPD   $0x0C, t, u, x

#define HALF1(x, t, u) \
	VPERMILPD $0x05, x, t; \
	VMAXPD    t, x, u; \
	VMINPD    t, x, t; \
	VBLENDPD  $0x0A, t, u, x

#define HALVES(x) \
	HALF2(x, Y13, Y14); \
	HALF1(x, Y13, Y14)

#define REV(x, y) VPERMPD $0x1B, x, y

// TRANSPOSE(a, b, c, d): the 4×4 transpose of registers a–d, in place,
// through Y8–Y11.
#define TRANSPOSE(a, b, c, d) \
	VUNPCKLPD  b, a, Y8; \
	VUNPCKHPD  b, a, Y9; \
	VUNPCKLPD  d, c, Y10; \
	VUNPCKHPD  d, c, Y11; \
	VPERM2F128 $0x20, Y10, Y8, a; \
	VPERM2F128 $0x20, Y11, Y9, b; \
	VPERM2F128 $0x31, Y10, Y8, c; \
	VPERM2F128 $0x31, Y11, Y9, d

// func sortLanesAVX2(lanes *[32]float64)
//
// Sorts the 32 lanes descending with a fixed network, so no branch depends
// on the values: Batcher's 19-comparator network sorts each of the four
// lane columns across the eight registers; two transposes make each column
// a run of 8 in two registers; bitonic merges join the runs 8+8 and 16+16.
TEXT ·sortLanesAVX2(SB), NOSPLIT, $0-8
	MOVQ    lanes+0(FP), DI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

	// Sort each lane column across Y0 ≥ Y1 ≥ … ≥ Y7.
	CE(Y0, Y1, Y8)
	CE(Y2, Y3, Y8)
	CE(Y4, Y5, Y8)
	CE(Y6, Y7, Y8)
	CE(Y0, Y2, Y8)
	CE(Y1, Y3, Y8)
	CE(Y4, Y6, Y8)
	CE(Y5, Y7, Y8)
	CE(Y1, Y2, Y8)
	CE(Y5, Y6, Y8)
	CE(Y0, Y4, Y8)
	CE(Y1, Y5, Y8)
	CE(Y2, Y6, Y8)
	CE(Y3, Y7, Y8)
	CE(Y2, Y4, Y8)
	CE(Y3, Y5, Y8)
	CE(Y1, Y2, Y8)
	CE(Y3, Y4, Y8)
	CE(Y5, Y6, Y8)

	// Column c becomes the run (Yc, Yc+4).
	TRANSPOSE(Y0, Y1, Y2, Y3)
	TRANSPOSE(Y4, Y5, Y6, Y7)

	// Columns 0 and 1 into the run Y0, Y4, Y8, Y9.
	REV(Y5, Y8)
	REV(Y1, Y9)
	CE(Y0, Y8, Y12)
	CE(Y4, Y9, Y12)
	CE(Y0, Y4, Y12)
	CE(Y8, Y9, Y12)
	HALVES(Y0)
	HALVES(Y4)
	HALVES(Y8)
	HALVES(Y9)

	// Columns 2 and 3 into the run Y2, Y6, Y10, Y11.
	REV(Y7, Y10)
	REV(Y3, Y11)
	CE(Y2, Y10, Y12)
	CE(Y6, Y11, Y12)
	CE(Y2, Y6, Y12)
	CE(Y10, Y11, Y12)
	HALVES(Y2)
	HALVES(Y6)
	HALVES(Y10)
	HALVES(Y11)

	// Both runs into Y0, Y4, Y8, Y9, Y1, Y3, Y5, Y7.
	REV(Y11, Y1)
	REV(Y10, Y3)
	REV(Y6, Y5)
	REV(Y2, Y7)
	CE(Y0, Y1, Y12)
	CE(Y4, Y3, Y12)
	CE(Y8, Y5, Y12)
	CE(Y9, Y7, Y12)
	CE(Y0, Y8, Y12)
	CE(Y4, Y9, Y12)
	CE(Y1, Y5, Y12)
	CE(Y3, Y7, Y12)
	CE(Y0, Y4, Y12)
	CE(Y8, Y9, Y12)
	CE(Y1, Y3, Y12)
	CE(Y5, Y7, Y12)
	HALVES(Y0)
	HALVES(Y4)
	HALVES(Y8)
	HALVES(Y9)
	HALVES(Y1)
	HALVES(Y3)
	HALVES(Y5)
	HALVES(Y7)

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y8, 64(DI)
	VMOVUPD Y9, 96(DI)
	VMOVUPD Y1, 128(DI)
	VMOVUPD Y3, 160(DI)
	VMOVUPD Y5, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// SELECT4(off, x, m, idx, k): compress-store the y = x XOR sign ≥ floor of
// the 4 elements at xs[consumed]+off; m, idx and k are scratch registers.
#define SELECT4(off, x, m, idx, k) \
	VXORPD    off(SI)(DX*8), Y15, x; \
	VCMPPD    $0x1D, Y0, x, m; \
	VMOVMSKPD m, k; \
	VPMOVZXBD (R9)(k*8), idx; \
	VPERMD    x, idx, m; \
	VMOVUPD   m, (DI)(AX*8); \
	POPCNTQ   k, k; \
	ADDQ      k, AX

// func selectAtLeastAVX2(dst *float64, room int, xs *float64, n int, floor float64, sign uint64) (written, consumed int)
//
// Compress-stores y = x XOR sign for every y ≥ floor (GE_OQ: a NaN is never
// selected) while the stores still fit in room. Registers: DI dst, SI xs,
// CX n, DX consumed, AX written, R8/R11 the last cursor one/two 4-lane
// stores fit at, R12 n rounded down to 8, R9 compress<>, Y0 floor, Y15 sign.
TEXT ·selectAtLeastAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         room+8(FP), R8
	MOVQ         xs+16(FP), SI
	MOVQ         n+24(FP), CX
	VBROADCASTSD floor+32(FP), Y0
	VBROADCASTSD sign+40(FP), Y15
	LEAQ         compress<>(SB), R9
	XORQ         AX, AX
	XORQ         DX, DX
	LEAQ         -8(R8), R11
	SUBQ         $4, R8
	MOVQ         CX, R12
	ANDQ         $~7, R12

sel8:
	CMPQ DX, R12
	JGE  sel4
	CMPQ AX, R11
	JGT  sel4
	SELECT4(0, Y1, Y2, Y3, BX)
	SELECT4(32, Y4, Y5, Y6, R10)
	ADDQ $8, DX
	JMP  sel8

sel4:
	CMPQ DX, CX
	JGE  seldone
	CMPQ AX, R8
	JGT  seldone
	SELECT4(0, Y1, Y2, Y3, BX)
	ADDQ $4, DX
	JMP  sel4

seldone:
	MOVQ AX, written+48(FP)
	MOVQ DX, consumed+56(FP)
	VZEROUPPER
	RET

// COMPACT4(off, s, eq, TAILS): compress-store the rows of the 4-row block
// at row r+off/8, whose scores are in s and whose lanes equal to dead are
// set in eq: the other scores in place, their row ids into cands, and
// TAILS the tails with the same permutation. Stores land at out ≤ r, never
// past the rows already loaded, so the compaction runs in place.
// Registers: SI score, R8 tails, DI cands, CX n, DX r, AX out,
// R9 compress<>, BX scratch, Y0 dead, Y6 the block's row ids, Y7 four,
// Y11 eight.
#define COMPACT4(off, s, eq, TAILS) \
	VMOVMSKPD eq, BX; \
	XORQ      $15, BX; \
	VPMOVZXBD (R9)(BX*8), Y3; \
	VPERMD    s, Y3, Y4; \
	VMOVDQU   Y4, (SI)(AX*8); \
	VPERMD    Y6, Y3, Y5; \
	VMOVDQU   Y5, (DI)(AX*8); \
	TAILS(off); \
	VPADDQ    Y7, Y6, Y6; \
	POPCNTQ   BX, BX; \
	ADDQ      BX, AX

#define MOVE_TAILS(off) \
	VMOVDQU off(R8)(DX*8), Y10; \
	VPERMD  Y10, Y3, Y4; \
	VMOVDQU Y4, (R8)(AX*8)

#define NO_TAILS(off)

// COMPACT_BODY(TAILS) runs COMPACT4 over the n rows and leaves out in AX.
// An 8-row block without a live row stores nothing. That branch is taken
// nearly always when few rows survive the switching prune (≈ 1 % on the
// skewed histograms of an Hq query) and nearly never when many do (uniform
// data switches near 50 %), so it is predictable where it saves; a branch
// per row would mispredict at 50 % live.
#define COMPACT_BODY(TAILS) \
	VMOVDQU      rowiota<>(SB), Y6; \
	MOVQ         $4, BX; \
	VMOVQ        BX, X7; \
	VPBROADCASTQ X7, Y7; \
	VPADDQ       Y7, Y7, Y11; \
	LEAQ         compress<>(SB), R9; \
	XORQ         AX, AX; \
	XORQ         DX, DX; \
	MOVQ         CX, R12; \
	ANDQ         $~7, R12; \
loop8: \
	CMPQ      DX, R12; \
	JGE       loop4; \
	VMOVDQU   (SI)(DX*8), Y1; \
	VMOVDQU   32(SI)(DX*8), Y8; \
	VPCMPEQQ  Y0, Y1, Y2; \
	VPCMPEQQ  Y0, Y8, Y9; \
	VPAND     Y9, Y2, Y10; \
	VMOVMSKPD Y10, BX; \
	CMPQ      BX, $15; \
	JNE       some8; \
	VPADDQ    Y11, Y6, Y6; \
	ADDQ      $8, DX; \
	JMP       loop8; \
some8: \
	COMPACT4(0, Y1, Y2, TAILS); \
	COMPACT4(32, Y8, Y9, TAILS); \
	ADDQ      $8, DX; \
	JMP       loop8; \
loop4: \
	CMPQ      DX, CX; \
	JGE       done; \
	VMOVDQU   (SI)(DX*8), Y1; \
	VPCMPEQQ  Y0, Y1, Y2; \
	COMPACT4(0, Y1, Y2, TAILS); \
	ADDQ      $4, DX; \
done:

// func compactLiveAVX2(cands *int, score *float64, n int, dead uint64) int
TEXT ·compactLiveAVX2(SB), NOSPLIT, $0-40
	MOVQ         cands+0(FP), DI
	MOVQ         score+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD dead+24(FP), Y0
	COMPACT_BODY(NO_TAILS)
	MOVQ         AX, ret+32(FP)
	VZEROUPPER
	RET

// func compactLiveTailsAVX2(cands *int, score, tails *float64, n int, dead uint64) int
TEXT ·compactLiveTailsAVX2(SB), NOSPLIT, $0-48
	MOVQ         cands+0(FP), DI
	MOVQ         score+8(FP), SI
	MOVQ         tails+16(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSD dead+32(FP), Y0
	COMPACT_BODY(MOVE_TAILS)
	MOVQ         AX, ret+40(FP)
	VZEROUPPER
	RET

// The one-pass prunes: KEEP_COMPACT_BODY(TEST) compacts rows [DX, CX) of
// the scores in place, from slot AX on, keeping the rows whose lanes TEST
// sets, and leaves the new out in AX. COMPACT_KEPT is COMPACT4 on a mask
// of the kept lanes; like there, its stores land at out ≤ r, inside the
// block already loaded, and an 8-row block with no kept row stores
// nothing — the common case when a carried κ removes nearly every row.
// Registers: SI score, DI cands, DX r, CX n, AX out, R9 compress<>,
// R12 the end of the 8-row blocks, BX scratch, Y0 allow or limit, Y14
// floor, Y6 the block's row ids, Y7 four, Y11 eight.
#define COMPACT_KEPT(s, keep) \
	VMOVMSKPD keep, BX; \
	VPMOVZXBD (R9)(BX*8), Y3; \
	VPERMD    s, Y3, Y4; \
	VMOVDQU   Y4, (SI)(AX*8); \
	VPERMD    Y6, Y3, Y5; \
	VMOVDQU   Y5, (DI)(AX*8); \
	VPADDQ    Y7, Y6, Y6; \
	POPCNTQ   BX, BX; \
	ADDQ      BX, AX

// s+allow >= floor (GE_OQ), and s <= limit (LE_OQ): a NaN fails both.
#define REACHING(s, m) \
	VADDPD Y0, s, m; \
	VCMPPD $0x1D, Y14, m, m

#define AT_MOST(s, m) \
	VCMPPD $0x12, Y0, s, m

#define KEEP_COMPACT_BODY(TEST) \
	VMOVQ        DX, X6; \
	VPBROADCASTQ X6, Y6; \
	VPADDQ       rowiota<>(SB), Y6, Y6; \
	MOVQ         $4, BX; \
	VMOVQ        BX, X7; \
	VPBROADCASTQ X7, Y7; \
	VPADDQ       Y7, Y7, Y11; \
	LEAQ         compress<>(SB), R9; \
	MOVQ         CX, R12; \
	SUBQ         DX, R12; \
	ANDQ         $~7, R12; \
	ADDQ         DX, R12; \
kloop8: \
	CMPQ      DX, R12; \
	JGE       kloop4; \
	VMOVUPD   (SI)(DX*8), Y1; \
	VMOVUPD   32(SI)(DX*8), Y8; \
	TEST(Y1, Y2); \
	TEST(Y8, Y9); \
	VORPD     Y9, Y2, Y10; \
	VMOVMSKPD Y10, BX; \
	TESTQ     BX, BX; \
	JNZ       ksome8; \
	VPADDQ    Y11, Y6, Y6; \
	ADDQ      $8, DX; \
	JMP       kloop8; \
ksome8: \
	COMPACT_KEPT(Y1, Y2); \
	COMPACT_KEPT(Y8, Y9); \
	ADDQ      $8, DX; \
	JMP       kloop8; \
kloop4: \
	CMPQ      DX, CX; \
	JGE       kdone; \
	VMOVUPD   (SI)(DX*8), Y1; \
	TEST(Y1, Y2); \
	COMPACT_KEPT(Y1, Y2); \
	ADDQ      $4, DX; \
kdone:

// func compactReachingAVX2(cands *int, score *float64, from, n, out int, allow, floor float64) int
TEXT ·compactReachingAVX2(SB), NOSPLIT, $0-64
	MOVQ         cands+0(FP), DI
	MOVQ         score+8(FP), SI
	MOVQ         from+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         out+32(FP), AX
	VBROADCASTSD allow+40(FP), Y0
	VBROADCASTSD floor+48(FP), Y14
	KEEP_COMPACT_BODY(REACHING)
	MOVQ         AX, ret+56(FP)
	VZEROUPPER
	RET

// func compactAtMostAVX2(cands *int, score *float64, from, n, out int, limit float64) int
TEXT ·compactAtMostAVX2(SB), NOSPLIT, $0-56
	MOVQ         cands+0(FP), DI
	MOVQ         score+8(FP), SI
	MOVQ         from+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         out+32(FP), AX
	VBROADCASTSD limit+40(FP), Y0
	KEEP_COMPACT_BODY(AT_MOST)
	MOVQ         AX, ret+48(FP)
	VZEROUPPER
	RET
