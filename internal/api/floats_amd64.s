//go:build amd64 && !purego

#include "textflag.h"

// shortRun in SSE2, the baseline every amd64 processor has, so it needs
// no CPU check. It follows shortRunGo step for step where that
// matters: the same short form, the same mantissa and exponent, Clinger's
// division or Eisel–Lemire on them (eiselLemire in atof.go, low word and
// declines included), so every value and offset it returns is the one
// shortRunGo returns.
//
// Registers across the loop: SI data, R8 the last offset with a whole
// window after it, BX the offset of the number being read, DI out, R9
// len(out), R10 numbers converted, R11 the offset after the last one.
// Per number: R13 the cursor, AX the mantissa, R14 minus its exponent,
// R12 the sign.

DATA zeros16<>+0(SB)/8, $0x3030303030303030
DATA zeros16<>+8(SB)/8, $0x3030303030303030
GLOBL zeros16<>(SB), RODATA|NOPTR, $16

DATA nines16<>+0(SB)/8, $0x0909090909090909
DATA nines16<>+8(SB)/8, $0x0909090909090909
GLOBL nines16<>(SB), RODATA|NOPTR, $16

DATA by10<>+0(SB)/8, $0x0001000A0001000A
DATA by10<>+8(SB)/8, $0x0001000A0001000A
GLOBL by10<>(SB), RODATA|NOPTR, $16

DATA by100<>+0(SB)/8, $0x0001006400010064
DATA by100<>+8(SB)/8, $0x0001006400010064
GLOBL by100<>(SB), RODATA|NOPTR, $16

DATA by10000<>+0(SB)/8, $0x0001271000012710
DATA by10000<>+8(SB)/8, $0x0001271000012710
GLOBL by10000<>(SB), RODATA|NOPTR, $16

// keep16<>[k] keeps the first k of 16 bytes (keepBytes, twice as wide).
DATA keep16<>+0x000(SB)/8, $0x0000000000000000
DATA keep16<>+0x008(SB)/8, $0x0000000000000000
DATA keep16<>+0x010(SB)/8, $0x00000000000000ff
DATA keep16<>+0x018(SB)/8, $0x0000000000000000
DATA keep16<>+0x020(SB)/8, $0x000000000000ffff
DATA keep16<>+0x028(SB)/8, $0x0000000000000000
DATA keep16<>+0x030(SB)/8, $0x0000000000ffffff
DATA keep16<>+0x038(SB)/8, $0x0000000000000000
DATA keep16<>+0x040(SB)/8, $0x00000000ffffffff
DATA keep16<>+0x048(SB)/8, $0x0000000000000000
DATA keep16<>+0x050(SB)/8, $0x000000ffffffffff
DATA keep16<>+0x058(SB)/8, $0x0000000000000000
DATA keep16<>+0x060(SB)/8, $0x0000ffffffffffff
DATA keep16<>+0x068(SB)/8, $0x0000000000000000
DATA keep16<>+0x070(SB)/8, $0x00ffffffffffffff
DATA keep16<>+0x078(SB)/8, $0x0000000000000000
DATA keep16<>+0x080(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x088(SB)/8, $0x0000000000000000
DATA keep16<>+0x090(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x098(SB)/8, $0x00000000000000ff
DATA keep16<>+0x0a0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0a8(SB)/8, $0x000000000000ffff
DATA keep16<>+0x0b0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0b8(SB)/8, $0x0000000000ffffff
DATA keep16<>+0x0c0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0c8(SB)/8, $0x00000000ffffffff
DATA keep16<>+0x0d0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0d8(SB)/8, $0x000000ffffffffff
DATA keep16<>+0x0e0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0e8(SB)/8, $0x0000ffffffffffff
DATA keep16<>+0x0f0(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x0f8(SB)/8, $0x00ffffffffffffff
DATA keep16<>+0x100(SB)/8, $0xffffffffffffffff
DATA keep16<>+0x108(SB)/8, $0xffffffffffffffff
GLOBL keep16<>(SB), RODATA|NOPTR, $272

// func shortRun(data []byte, i int, out []float64) (n, end int)
TEXT ·shortRun(SB), NOSPLIT, $0-72
	MOVQ  data_base+0(FP), SI
	MOVQ  data_len+8(FP), R8
	MOVQ  i+24(FP), BX
	MOVQ  out_base+32(FP), DI
	MOVQ  out_len+40(FP), R9
	XORQ  R10, R10
	MOVQ  BX, R11
	SUBQ  $32, R8                 // shortWindow
	MOVOU zeros16<>(SB), X8
	MOVOU nines16<>(SB), X9
	MOVOU by10<>(SB), X10
	MOVOU by100<>(SB), X11
	MOVOU by10000<>(SB), X12
	PXOR  X13, X13

loop:
	CMPQ R10, R9
	JAE  done
	CMPQ BX, R8
	JGT  done
	LEAQ (SI)(BX*1), R13
	XORQ R12, R12
	CMPB (R13), $0x2d             // '-'
	JNE  intpart
	MOVQ $1, R12
	INCQ R13

intpart:
	MOVBQZX (R13), AX
	SUBQ    $0x30, AX
	CMPQ    AX, $9
	JHI     done
	INCQ    R13
	XORQ    R14, R14
	CMPB    (R13), $0x2e          // '.'
	JNE     term
	INCQ    R13
	TESTQ   AX, AX
	JNZ     fraction
	MOVQ    $0x3030303030303030, CX
	XORQ    (R13), CX
	BSFQ    CX, CX                // the first byte that is not '0'
	JZ      done
	SHRQ    $3, CX
	ADDQ    CX, R13
	MOVQ    CX, R14

fraction:
	// The 16 bytes ahead less '0': k is the run of values ≤ 9, the bytes
	// after it are cleared, and three multiply-adds of adjacent lanes
	// (×10, ×100, ×10⁴) leave the two eight-digit halves.
	MOVOU    (R13), X0
	PSUBB    X8, X0
	MOVO     X0, X1
	PMINUB   X9, X1
	PCMPEQB  X0, X1
	PMOVMSKB X1, CX
	NOTL     CX
	ORL      $0x10000, CX
	BSFL     CX, CX
	MOVQ     CX, DX
	ADDQ     R14, DX
	JZ       done                 // a point and no digit
	ADDQ     CX, R13
	MOVQ     CX, DX
	SHLQ     $4, DX
	LEAQ     keep16<>(SB), R15
	PAND     (R15)(DX*1), X0
	ADDQ     $16, R14
	MOVO     X0, X1
	PUNPCKLBW X13, X0
	PUNPCKHBW X13, X1
	PMADDWL  X10, X0
	PMADDWL  X10, X1
	PACKSSLW X1, X0
	PMADDWL  X11, X0
	PACKSSLW X0, X0
	PMADDWL  X12, X0
	MOVQ     X0, R15
	MOVL     R15, DX
	SHRQ     $32, R15
	IMULQ    $100000000, DX
	ADDQ     DX, R15
	MOVQ     $10000000000000000, DX
	IMULQ    DX, AX
	ADDQ     R15, AX
	CMPQ     CX, $16
	JNE      term
	MOVBQZX  (R13), DX            // a 17th digit
	SUBQ     $0x30, DX
	CMPQ     DX, $9
	JHI      term
	MOVBQZX  1(R13), R15          // an 18th is not short
	SUBQ     $0x30, R15
	CMPQ     R15, $9
	JLS      done
	LEAQ     (AX)(AX*4), AX
	LEAQ     (DX)(AX*2), AX
	INCQ     R14
	INCQ     R13

term:
	MOVBQZX (R13), DX
	LEAQ    -0x30(DX), R15
	CMPQ    R15, $9
	JLS     done
	CMPQ    DX, $0x2e
	JEQ     done
	ORQ     $0x20, DX
	CMPQ    DX, $0x65             // 'e' or 'E'
	JEQ     done
	SUBQ    SI, R13               // the offset after the number
	MOVQ    $0x20000000000000, DX // 2⁵³
	CMPQ    AX, DX
	JAE     eisel
	CMPQ    R14, $22
	JHI     eisel
	CVTSQ2SD AX, X0
	LEAQ    ·pow10(SB), DX
	DIVSD   (DX)(R14*8), X0
	TESTQ   R12, R12
	JZ      store
	MOVQ    X0, DX
	BTSQ    $63, DX
	MOVQ    DX, X0

store:
	MOVSD X0, (DI)(R10*8)
	INCQ  R10
	MOVQ  R13, R11
	CMPB  (SI)(R13*1), $0x2c      // ','
	JNE   done
	LEAQ  1(R13), BX
	JMP   loop

eisel:
	// eiselLemire(AX, −R14, R12). BX is free until the next number.
	TESTQ AX, AX
	JZ    zero
	BSRQ  AX, CX
	XORQ  $63, CX                 // leading zeros
	SHLQ  CX, AX
	MOVQ  $348, BX                // −minExp10
	SUBQ  R14, BX
	SHLQ  $4, BX
	LEAQ  ·powers10(SB), R15
	ADDQ  R15, BX                 // &powers10[exp10−minExp10]
	NEGQ  R14
	IMULQ $217706, R14
	SARQ  $16, R14
	ADDQ  $1087, R14
	SUBQ  CX, R14                 // exp2
	MOVQ  AX, CX                  // man, normalized
	MULQ  (BX)                    // DX:AX = hi:lo
	MOVQ  DX, R15
	ANDQ  $0x1ff, R15
	CMPQ  R15, $0x1ff
	JNE   rounding
	MOVQ  AX, R15
	ADDQ  CX, R15
	JCC   rounding
	// The low bits may carry: take the table's low word in too.
	MOVQ  AX, X2
	MOVQ  DX, X3
	MOVQ  CX, AX
	MULQ  8(BX)                   // DX:AX = yHi:yLo
	MOVQ  X2, R15
	ADDQ  DX, R15                 // mergedLo
	MOVQ  X3, DX
	ADCQ  $0, DX                  // mergedHi
	MOVQ  DX, BX
	ANDQ  $0x1ff, BX
	CMPQ  BX, $0x1ff
	JNE   merged
	CMPQ  R15, $-1
	JNE   merged
	ADDQ  CX, AX
	JCS   done

merged:
	MOVQ R15, AX

rounding:
	MOVQ  DX, CX
	SHRQ  $63, CX                 // msb
	MOVQ  DX, R15
	ADDQ  $9, CX
	SHRQ  CX, R15                 // mant
	SUBQ  $9, CX
	XORQ  $1, CX
	SUBQ  CX, R14
	TESTQ AX, AX
	JNZ   halfup
	TESTQ $0x1ff, DX
	JNZ   halfup
	MOVQ  R15, CX
	ANDQ  $3, CX
	CMPQ  CX, $1
	JEQ   done                    // may sit exactly halfway

halfup:
	MOVQ  R15, CX
	ANDQ  $1, CX
	ADDQ  CX, R15
	SHRQ  $1, R15
	MOVQ  R15, CX
	SHRQ  $53, CX
	SHRQ  CX, R15
	ADDQ  CX, R14
	LEAQ  -1(R14), CX
	CMPQ  CX, $0x7fe
	JCC   done                    // subnormal or infinite
	SHLQ  $52, R14
	MOVQ  $0xfffffffffffff, CX
	ANDQ  CX, R15
	ORQ   R15, R14
	SHLQ  $63, R12
	ORQ   R12, R14
	MOVQ  R14, X0
	JMP   store

zero:
	MOVQ R12, DX
	SHLQ $63, DX
	MOVQ DX, X0
	JMP  store

done:
	MOVQ R10, n+56(FP)
	MOVQ R11, end+64(FP)
	RET
