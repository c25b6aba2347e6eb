//go:build amd64 && !purego

#include "textflag.h"

// AVX2 variants of the kernel inner loops. Shared conventions:
//
//   - n is a multiple of 4 (the Go wrapper runs the remainder); every
//     loop retires 4 candidates/dimensions per iteration, except the
//     dense kernel's 16-wide main loop.
//   - The gather kernels must stay bit-identical to the scalar loops:
//     one addition per slot per column, vsubpd/vmulpd/vaddpd only —
//     never FMA, which rounds once where the scalar code rounds twice.
//   - VGATHERQPD zeroes its mask register, so the all-ones mask is
//     re-materialized (VPCMPEQD of a register with itself) before every
//     gather; mask, index, and destination must be distinct registers.
//   - min() is the Go builtin's ordering (−0 < +0, NaN poisons), which a
//     single VMINPD does not give: VMINPD returns its second source on
//     ties and NaNs. min_go(a,b) = VMINPD(a,b) | VMINPD(b,a) — on a tie
//     of ±0 the OR keeps the sign bit, on distinct values both minima
//     agree, and a NaN input ORs into a NaN.
//   - VZEROUPPER before every RET: the callers return into SSE-era
//     scalar code, and a dirty upper state would stall it.

// func accSqDistAVX2(score, col *float64, cands *int, n int, qd float64)
TEXT ·accSqDistAVX2(SB), NOSPLIT, $0-40
	MOVQ         score+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         cands+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD qd+32(FP), Y0

sqloop:
	TESTQ      CX, CX
	JZ         sqdone
	VMOVDQU    (DX), Y1              // 4 candidate ids
	VPCMPEQD   Y2, Y2, Y2            // gather mask: all lanes active
	VGATHERQPD Y2, (SI)(Y1*8), Y3    // v = col[cands[i..i+3]]
	VSUBPD     Y0, Y3, Y4            // d = v - qd
	VMULPD     Y4, Y4, Y4            // d*d
	VMOVUPD    (DI), Y5
	VADDPD     Y4, Y5, Y5            // score += d*d
	VMOVUPD    Y5, (DI)
	ADDQ       $32, DI
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        sqloop

sqdone:
	VZEROUPPER
	RET

// func accSqDistTailsAVX2(score, tails, col *float64, cands *int, n int, qd float64)
TEXT ·accSqDistTailsAVX2(SB), NOSPLIT, $0-48
	MOVQ         score+0(FP), DI
	MOVQ         tails+8(FP), R8
	MOVQ         col+16(FP), SI
	MOVQ         cands+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD qd+40(FP), Y0

sqtloop:
	TESTQ      CX, CX
	JZ         sqtdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VSUBPD     Y0, Y3, Y4
	VMULPD     Y4, Y4, Y4
	VMOVUPD    (DI), Y5
	VADDPD     Y4, Y5, Y5
	VMOVUPD    Y5, (DI)
	VMOVUPD    (R8), Y6
	VSUBPD     Y3, Y6, Y6            // tails -= v
	VMOVUPD    Y6, (R8)
	ADDQ       $32, DI
	ADDQ       $32, R8
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        sqtloop

sqtdone:
	VZEROUPPER
	RET

// func accWSqDistAVX2(score, col *float64, cands *int, n int, qd, w float64)
TEXT ·accWSqDistAVX2(SB), NOSPLIT, $0-48
	MOVQ         score+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         cands+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD qd+32(FP), Y0
	VBROADCASTSD w+40(FP), Y7

wsqloop:
	TESTQ      CX, CX
	JZ         wsqdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VSUBPD     Y0, Y3, Y4            // d
	VMULPD     Y4, Y7, Y5            // w*d
	VMULPD     Y4, Y5, Y5            // (w*d)*d — the scalar association
	VMOVUPD    (DI), Y6
	VADDPD     Y5, Y6, Y6
	VMOVUPD    Y6, (DI)
	ADDQ       $32, DI
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        wsqloop

wsqdone:
	VZEROUPPER
	RET

// func accWSqDistTailsAVX2(score, tails, col *float64, cands *int, n int, qd, w float64)
TEXT ·accWSqDistTailsAVX2(SB), NOSPLIT, $0-56
	MOVQ         score+0(FP), DI
	MOVQ         tails+8(FP), R8
	MOVQ         col+16(FP), SI
	MOVQ         cands+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD qd+40(FP), Y0
	VBROADCASTSD w+48(FP), Y7

wsqtloop:
	TESTQ      CX, CX
	JZ         wsqtdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VSUBPD     Y0, Y3, Y4
	VMULPD     Y4, Y7, Y5
	VMULPD     Y4, Y5, Y5
	VMOVUPD    (DI), Y6
	VADDPD     Y5, Y6, Y6
	VMOVUPD    Y6, (DI)
	VMOVUPD    (R8), Y6
	VSUBPD     Y3, Y6, Y6
	VMOVUPD    Y6, (R8)
	ADDQ       $32, DI
	ADDQ       $32, R8
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        wsqtloop

wsqtdone:
	VZEROUPPER
	RET

// func accMinQAVX2(score, col *float64, cands *int, n int, qd float64)
TEXT ·accMinQAVX2(SB), NOSPLIT, $0-40
	MOVQ         score+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         cands+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD qd+32(FP), Y0

mqloop:
	TESTQ      CX, CX
	JZ         mqdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3    // v
	VMINPD     Y0, Y3, Y4            // min(v,q), ties/NaN -> q
	VMINPD     Y3, Y0, Y5            // min(q,v), ties/NaN -> v
	VORPD      Y5, Y4, Y4            // Go min semantics
	VMOVUPD    (DI), Y6
	VADDPD     Y4, Y6, Y6
	VMOVUPD    Y6, (DI)
	ADDQ       $32, DI
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        mqloop

mqdone:
	VZEROUPPER
	RET

// func accMinQTailsAVX2(score, tails, col *float64, cands *int, n int, qd float64)
TEXT ·accMinQTailsAVX2(SB), NOSPLIT, $0-48
	MOVQ         score+0(FP), DI
	MOVQ         tails+8(FP), R8
	MOVQ         col+16(FP), SI
	MOVQ         cands+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD qd+40(FP), Y0

mqtloop:
	TESTQ      CX, CX
	JZ         mqtdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VMINPD     Y0, Y3, Y4
	VMINPD     Y3, Y0, Y5
	VORPD      Y5, Y4, Y4
	VMOVUPD    (DI), Y6
	VADDPD     Y4, Y6, Y6
	VMOVUPD    Y6, (DI)
	VMOVUPD    (R8), Y6
	VSUBPD     Y3, Y6, Y6
	VMOVUPD    Y6, (R8)
	ADDQ       $32, DI
	ADDQ       $32, R8
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        mqtloop

mqtdone:
	VZEROUPPER
	RET

// func accWMinQAVX2(score, col *float64, cands *int, n int, qd, w float64)
TEXT ·accWMinQAVX2(SB), NOSPLIT, $0-48
	MOVQ         score+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         cands+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD qd+32(FP), Y0
	VBROADCASTSD w+40(FP), Y7

wmqloop:
	TESTQ      CX, CX
	JZ         wmqdone
	VMOVDQU    (DX), Y1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VMINPD     Y0, Y3, Y4
	VMINPD     Y3, Y0, Y5
	VORPD      Y5, Y4, Y4
	VMULPD     Y4, Y7, Y4            // w*min
	VMOVUPD    (DI), Y6
	VADDPD     Y4, Y6, Y6
	VMOVUPD    Y6, (DI)
	ADDQ       $32, DI
	ADDQ       $32, DX
	SUBQ       $4, CX
	JMP        wmqloop

wmqdone:
	VZEROUPPER
	RET

// func accCodeBoundsAVX2(sLo, sHi *float64, codes *uint8, cands *int, n int, tLo, tHi *[256]float64)
TEXT ·accCodeBoundsAVX2(SB), NOSPLIT, $0-56
	MOVQ sLo+0(FP), DI
	MOVQ sHi+8(FP), SI
	MOVQ codes+16(FP), BX
	MOVQ cands+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ tLo+40(FP), R9
	MOVQ tHi+48(FP), R10

cbloop:
	TESTQ    CX, CX
	JZ       cbdone

	// The codes of 4 candidates are scattered bytes — no vector byte
	// gather exists, so load them scalar, pack into one dword, and
	// zero-extend to 4 qword table indices.
	MOVQ     0(DX), R11
	MOVBLZX  (BX)(R11*1), R12
	MOVQ     8(DX), R11
	MOVBLZX  (BX)(R11*1), R13
	MOVQ     16(DX), R11
	MOVBLZX  (BX)(R11*1), R14
	MOVQ     24(DX), R11
	MOVBLZX  (BX)(R11*1), AX
	SHLQ     $8, R13
	ORQ      R13, R12
	SHLQ     $16, R14
	ORQ      R14, R12
	SHLQ     $24, AX
	ORQ      AX, R12
	// VMOVQ, not MOVQ: a legacy-SSE write to X1 with dirty ymm uppers
	// pays an AVX/SSE state-transition penalty every iteration.
	VMOVQ    R12, X1
	VPMOVZXBQ X1, Y1

	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (R9)(Y1*8), Y3    // tLo[c]
	VMOVUPD    (DI), Y4
	VADDPD     Y3, Y4, Y4
	VMOVUPD    Y4, (DI)
	VPCMPEQD   Y5, Y5, Y5
	VGATHERQPD Y5, (R10)(Y1*8), Y6   // tHi[c]
	VMOVUPD    (SI), Y7
	VADDPD     Y6, Y7, Y7
	VMOVUPD    Y7, (SI)

	ADDQ     $32, DI
	ADDQ     $32, SI
	ADDQ     $32, DX
	SUBQ     $4, CX
	JMP      cbloop

cbdone:
	VZEROUPPER
	RET

DATA vaiota<>+0(SB)/8, $0
DATA vaiota<>+8(SB)/8, $256
DATA vaiota<>+16(SB)/8, $512
DATA vaiota<>+24(SB)/8, $768
GLOBL vaiota<>(SB), RODATA|NOPTR, $32

DATA vastep<>+0(SB)/8, $1024
DATA vastep<>+8(SB)/8, $1024
DATA vastep<>+16(SB)/8, $1024
DATA vastep<>+24(SB)/8, $1024
GLOBL vastep<>(SB), RODATA|NOPTR, $32

// func vaRowSumAVX2(tbl *float64, row *uint8, n int, out *[4]float64)
//
// Accumulator lane j sees exactly the dimensions 4k+j the scalar s_j
// sees, in the same order, so the lane partials are bit-identical to the
// scalar accumulators.
TEXT ·vaRowSumAVX2(SB), NOSPLIT, $0-32
	MOVQ    tbl+0(FP), SI
	MOVQ    row+8(FP), DX
	MOVQ    n+16(FP), CX
	MOVQ    out+24(FP), DI
	VXORPD  Y8, Y8, Y8               // lane accumulators
	VMOVDQU vaiota<>(SB), Y9         // {0,256,512,768} + d*256, d += 4/iter
	VMOVDQU vastep<>(SB), Y10

valoop:
	TESTQ      CX, CX
	JZ         vadone
	MOVL       (DX), R11             // 4 code bytes
	VMOVQ      R11, X1               // VEX-encoded: no SSE/AVX transition
	VPMOVZXBQ  X1, Y1
	VPADDQ     Y9, Y1, Y1            // idx = (d+j)*256 + row[d+j]
	VPCMPEQD   Y2, Y2, Y2
	VGATHERQPD Y2, (SI)(Y1*8), Y3
	VADDPD     Y3, Y8, Y8
	VPADDQ     Y10, Y9, Y9
	ADDQ       $4, DX
	SUBQ       $4, CX
	JMP        valoop

vadone:
	VMOVUPD Y8, (DI)
	VZEROUPPER
	RET

// func sqDistAVX2(v, q *float64, n int, out *[4]float64)
//
// Dense kernel: four independent vector accumulators, 16 elements per
// main-loop iteration, so the reduction order differs from the scalar
// code within its documented few-ulp tolerance.
TEXT ·sqDistAVX2(SB), NOSPLIT, $0-32
	MOVQ   v+0(FP), SI
	MOVQ   q+8(FP), DX
	MOVQ   n+16(FP), CX
	MOVQ   out+24(FP), DI
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

sd16:
	CMPQ    CX, $16
	JLT     sd4
	VMOVUPD 0(SI), Y1
	VMOVUPD 0(DX), Y2
	VSUBPD  Y2, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y8, Y8
	VMOVUPD 32(SI), Y1
	VMOVUPD 32(DX), Y2
	VSUBPD  Y2, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y9, Y9
	VMOVUPD 64(SI), Y1
	VMOVUPD 64(DX), Y2
	VSUBPD  Y2, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y10, Y10
	VMOVUPD 96(SI), Y1
	VMOVUPD 96(DX), Y2
	VSUBPD  Y2, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y11, Y11
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     sd16

sd4:
	TESTQ   CX, CX
	JZ      sddone
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y2
	VSUBPD  Y2, Y1, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y8, Y8
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     sd4

sddone:
	VADDPD  Y9, Y8, Y8
	VADDPD  Y11, Y10, Y10
	VADDPD  Y10, Y8, Y8
	VMOVUPD Y8, (DI)
	VZEROUPPER
	RET

// The run kernels: contiguous, register-blocked folds of several columns
// into row-indexed scores, score[r] += f(cols[j][r], q[j]) for j in call
// order. A block of 16 scores (and 16 tails) stays in registers while the
// call's columns stream past it, so per cell the kernel moves the 8 column
// bytes and nothing else — no id list, no gather, one score load and store
// per block rather than per column. The per-slot arithmetic is the gather
// kernels' (same instructions, same order), so the bits are too.
//
// Register plan: DI score, DX tails, R8 the column slice headers (24 bytes
// apart, data pointer first), R9 their count, R10 q, AX w − q in bytes (so
// the q cursor R12 addresses both), CX rows left (a multiple of 4), BX the
// byte offset of the current block, R11/R13 the header cursor and columns
// left. Y0 = q[j], Y7 = w[j], Y1–Y4 column values then terms, Y5 scratch,
// Y8–Y11 scores, Y12–Y15 tails.

// TERM_*(v, t): v holds column values on entry and the term to add on
// exit; t is scratch.
#define TERM_SQ(v, t) \
	VSUBPD Y0, v, v; \
	VMULPD v, v, v

#define TERM_WSQ(v, t) \
	VSUBPD Y0, v, v; \
	VMULPD v, Y7, t; \
	VMULPD v, t, v

#define TERM_MINQ(v, t) \
	VMINPD Y0, v, t; \
	VMINPD v, Y0, v; \
	VORPD  t, v, v

#define TERM_WMINQ(v, t) \
	TERM_MINQ(v, t); \
	VMULPD v, Y7, v

#define LOADW VBROADCASTSD (R12)(AX*1), Y7
#define NOW

// RUN_BODY(TERM, W): the score-only kernels.
#define RUN_BODY(TERM, W) \
	XORQ BX, BX; \
blk16: \
	CMPQ CX, $16; \
	JLT  blk4; \
	VMOVUPD 0(DI)(BX*1), Y8; \
	VMOVUPD 32(DI)(BX*1), Y9; \
	VMOVUPD 64(DI)(BX*1), Y10; \
	VMOVUPD 96(DI)(BX*1), Y11; \
	MOVQ R8, R11; \
	MOVQ R10, R12; \
	MOVQ R9, R13; \
col16: \
	MOVQ (R11), SI; \
	VBROADCASTSD (R12), Y0; \
	W; \
	VMOVUPD 0(SI)(BX*1), Y1; \
	VMOVUPD 32(SI)(BX*1), Y2; \
	VMOVUPD 64(SI)(BX*1), Y3; \
	VMOVUPD 96(SI)(BX*1), Y4; \
	TERM(Y1, Y5); \
	VADDPD Y1, Y8, Y8; \
	TERM(Y2, Y5); \
	VADDPD Y2, Y9, Y9; \
	TERM(Y3, Y5); \
	VADDPD Y3, Y10, Y10; \
	TERM(Y4, Y5); \
	VADDPD Y4, Y11, Y11; \
	ADDQ $24, R11; \
	ADDQ $8, R12; \
	DECQ R13; \
	JNZ  col16; \
	VMOVUPD Y8, 0(DI)(BX*1); \
	VMOVUPD Y9, 32(DI)(BX*1); \
	VMOVUPD Y10, 64(DI)(BX*1); \
	VMOVUPD Y11, 96(DI)(BX*1); \
	ADDQ $128, BX; \
	SUBQ $16, CX; \
	JMP  blk16; \
blk4: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVUPD (DI)(BX*1), Y8; \
	MOVQ R8, R11; \
	MOVQ R10, R12; \
	MOVQ R9, R13; \
col4: \
	MOVQ (R11), SI; \
	VBROADCASTSD (R12), Y0; \
	W; \
	VMOVUPD (SI)(BX*1), Y1; \
	TERM(Y1, Y5); \
	VADDPD Y1, Y8, Y8; \
	ADDQ $24, R11; \
	ADDQ $8, R12; \
	DECQ R13; \
	JNZ  col4; \
	VMOVUPD Y8, (DI)(BX*1); \
	ADDQ $32, BX; \
	SUBQ $4, CX; \
	JMP  blk4; \
done: \
	VZEROUPPER; \
	RET

// RUN_TAILS_BODY(TERM, W): the same with tails[r] -= cols[j][r].
#define RUN_TAILS_BODY(TERM, W) \
	XORQ BX, BX; \
blk16: \
	CMPQ CX, $16; \
	JLT  blk4; \
	VMOVUPD 0(DI)(BX*1), Y8; \
	VMOVUPD 32(DI)(BX*1), Y9; \
	VMOVUPD 64(DI)(BX*1), Y10; \
	VMOVUPD 96(DI)(BX*1), Y11; \
	VMOVUPD 0(DX)(BX*1), Y12; \
	VMOVUPD 32(DX)(BX*1), Y13; \
	VMOVUPD 64(DX)(BX*1), Y14; \
	VMOVUPD 96(DX)(BX*1), Y15; \
	MOVQ R8, R11; \
	MOVQ R10, R12; \
	MOVQ R9, R13; \
col16: \
	MOVQ (R11), SI; \
	VBROADCASTSD (R12), Y0; \
	W; \
	VMOVUPD 0(SI)(BX*1), Y1; \
	VMOVUPD 32(SI)(BX*1), Y2; \
	VMOVUPD 64(SI)(BX*1), Y3; \
	VMOVUPD 96(SI)(BX*1), Y4; \
	VSUBPD Y1, Y12, Y12; \
	VSUBPD Y2, Y13, Y13; \
	VSUBPD Y3, Y14, Y14; \
	VSUBPD Y4, Y15, Y15; \
	TERM(Y1, Y5); \
	VADDPD Y1, Y8, Y8; \
	TERM(Y2, Y5); \
	VADDPD Y2, Y9, Y9; \
	TERM(Y3, Y5); \
	VADDPD Y3, Y10, Y10; \
	TERM(Y4, Y5); \
	VADDPD Y4, Y11, Y11; \
	ADDQ $24, R11; \
	ADDQ $8, R12; \
	DECQ R13; \
	JNZ  col16; \
	VMOVUPD Y8, 0(DI)(BX*1); \
	VMOVUPD Y9, 32(DI)(BX*1); \
	VMOVUPD Y10, 64(DI)(BX*1); \
	VMOVUPD Y11, 96(DI)(BX*1); \
	VMOVUPD Y12, 0(DX)(BX*1); \
	VMOVUPD Y13, 32(DX)(BX*1); \
	VMOVUPD Y14, 64(DX)(BX*1); \
	VMOVUPD Y15, 96(DX)(BX*1); \
	ADDQ $128, BX; \
	SUBQ $16, CX; \
	JMP  blk16; \
blk4: \
	TESTQ CX, CX; \
	JZ   done; \
	VMOVUPD (DI)(BX*1), Y8; \
	VMOVUPD (DX)(BX*1), Y12; \
	MOVQ R8, R11; \
	MOVQ R10, R12; \
	MOVQ R9, R13; \
col4: \
	MOVQ (R11), SI; \
	VBROADCASTSD (R12), Y0; \
	W; \
	VMOVUPD (SI)(BX*1), Y1; \
	VSUBPD Y1, Y12, Y12; \
	TERM(Y1, Y5); \
	VADDPD Y1, Y8, Y8; \
	ADDQ $24, R11; \
	ADDQ $8, R12; \
	DECQ R13; \
	JNZ  col4; \
	VMOVUPD Y8, (DI)(BX*1); \
	VMOVUPD Y12, (DX)(BX*1); \
	ADDQ $32, BX; \
	SUBQ $4, CX; \
	JMP  blk4; \
done: \
	VZEROUPPER; \
	RET

// func accSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64)
TEXT ·accSqDistRunAVX2(SB), NOSPLIT, $0-40
	MOVQ score+0(FP), DI
	MOVQ cols+8(FP), R8
	MOVQ ncols+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), R10
	RUN_BODY(TERM_SQ, NOW)

// func accMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q *float64)
TEXT ·accMinQRunAVX2(SB), NOSPLIT, $0-40
	MOVQ score+0(FP), DI
	MOVQ cols+8(FP), R8
	MOVQ ncols+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), R10
	RUN_BODY(TERM_MINQ, NOW)

// func accWSqDistRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64)
TEXT ·accWSqDistRunAVX2(SB), NOSPLIT, $0-48
	MOVQ score+0(FP), DI
	MOVQ cols+8(FP), R8
	MOVQ ncols+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), R10
	MOVQ w+40(FP), AX
	SUBQ R10, AX
	RUN_BODY(TERM_WSQ, LOADW)

// func accWMinQRunAVX2(score *float64, cols *[]float64, ncols, n int, q, w *float64)
TEXT ·accWMinQRunAVX2(SB), NOSPLIT, $0-48
	MOVQ score+0(FP), DI
	MOVQ cols+8(FP), R8
	MOVQ ncols+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), R10
	MOVQ w+40(FP), AX
	SUBQ R10, AX
	RUN_BODY(TERM_WMINQ, LOADW)

// func accSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64)
TEXT ·accSqDistTailsRunAVX2(SB), NOSPLIT, $0-48
	MOVQ score+0(FP), DI
	MOVQ tails+8(FP), DX
	MOVQ cols+16(FP), R8
	MOVQ ncols+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ q+40(FP), R10
	RUN_TAILS_BODY(TERM_SQ, NOW)

// func accMinQTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q *float64)
TEXT ·accMinQTailsRunAVX2(SB), NOSPLIT, $0-48
	MOVQ score+0(FP), DI
	MOVQ tails+8(FP), DX
	MOVQ cols+16(FP), R8
	MOVQ ncols+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ q+40(FP), R10
	RUN_TAILS_BODY(TERM_MINQ, NOW)

// func accWSqDistTailsRunAVX2(score, tails *float64, cols *[]float64, ncols, n int, q, w *float64)
TEXT ·accWSqDistTailsRunAVX2(SB), NOSPLIT, $0-56
	MOVQ score+0(FP), DI
	MOVQ tails+8(FP), DX
	MOVQ cols+16(FP), R8
	MOVQ ncols+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ q+40(FP), R10
	MOVQ w+48(FP), AX
	SUBQ R10, AX
	RUN_TAILS_BODY(TERM_WSQ, LOADW)

// The keep kernels: the dense phase's prune. A row that fails the test gets
// the score dead in place of being compacted out; the return counts the
// rows kept. The compares are ordered and quiet, so a NaN fails like in Go.

// func keepAtMostAVX2(score *float64, n int, limit, dead float64) int
TEXT ·keepAtMostAVX2(SB), NOSPLIT, $0-40
	MOVQ         score+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD limit+16(FP), Y0
	VBROADCASTSD dead+24(FP), Y1
	XORQ         AX, AX

kamloop:
	TESTQ     CX, CX
	JZ        kamdone
	VMOVUPD   (DI), Y2
	VCMPPD    $0x12, Y0, Y2, Y3      // s <= limit (LE_OQ)
	VBLENDVPD Y3, Y2, Y1, Y4         // kept ? s : dead
	VMOVUPD   Y4, (DI)
	VMOVMSKPD Y3, BX
	POPCNTQ   BX, BX
	ADDQ      BX, AX
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       kamloop

kamdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func keepReachingAVX2(score *float64, n int, allow, floor, dead float64) int
TEXT ·keepReachingAVX2(SB), NOSPLIT, $0-48
	MOVQ         score+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD allow+16(FP), Y0
	VBROADCASTSD floor+24(FP), Y1
	VBROADCASTSD dead+32(FP), Y7
	XORQ         AX, AX

krloop:
	TESTQ     CX, CX
	JZ        krdone
	VMOVUPD   (DI), Y2
	VADDPD    Y0, Y2, Y3
	VCMPPD    $0x1D, Y1, Y3, Y3      // s+allow >= floor (GE_OQ)
	VBLENDVPD Y3, Y2, Y7, Y4
	VMOVUPD   Y4, (DI)
	VMOVMSKPD Y3, BX
	POPCNTQ   BX, BX
	ADDQ      BX, AX
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       krloop

krdone:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET
