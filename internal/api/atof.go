package api

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// Number conversion for the one-pass decoder: the digits the grammar pass
// scans become a decimal mantissa and exponent, and eiselLemire turns
// those into the float64 strconv.ParseFloat would return, or declines.

// digitMask marks, with its top bit, each byte of v (eight bytes loaded
// little-endian) that is not an ASCII digit, or at least the first such
// byte: a byte outside '0'..'9' sets its top bit in either v+0x46…
// (above '9') or v−0x30… (below '0'), and the lowest one gets no carry or
// borrow from the digits below it, so that one is marked exactly.
func digitMask(v uint64) uint64 {
	return ((v + 0x4646464646464646) | (v - zeros)) & 0x8080808080808080
}

// zeros is eight ASCII '0's, loaded little-endian.
const zeros = 0x3030303030303030

// digits8 returns eight digit values, one a byte with the first byte most
// significant (ASCII digits minus zeros, loaded little-endian), as a
// decimal number.
func digits8(v uint64) uint64 {
	v = v*10 + v>>8 // each 16-bit lane's low byte: two digits
	// Pair the two-digit lanes into four-digit, then eight-digit values.
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return uint64(uint32(v))
}

// eightDigits reports whether the first eight bytes of b are all ASCII
// digits, and if so their value as a decimal number.
func eightDigits(b []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(b)
	if digitMask(v) != 0 {
		return 0, false
	}
	return digits8(v - zeros), true
}

// keepBytes[n] keeps the low n bytes of a word: the first n of eight
// bytes loaded little-endian.
var keepBytes = [9]uint64{0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFF,
	0xFFFFFFFFFFFF, 0xFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF}

// The range of powers of ten eiselLemire handles.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powers10 holds 10^e for minExp10 ≤ e ≤ maxExp10 as 128-bit mantissas
// rounded down, high word first, normalized so the top bit is set; the
// binary exponent is implied by e. It is computed once, exactly.
var powers10 = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	put := func(e int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[e-minExp10] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	ten := big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int)
	for e := 0; e <= maxExp10; e++ {
		if n := p.BitLen(); n > 128 {
			put(e, m.Rsh(p, uint(n-128)))
		} else {
			put(e, m.Lsh(p, uint(128-n)))
		}
		p.Mul(p, ten)
	}
	// 10^−e rounded down is ⌊2^k / 10^e⌋, with k chosen for 128 bits.
	p.SetInt64(1)
	for e := 1; e <= -minExp10; e++ {
		p.Mul(p, ten)
		m.Lsh(big.NewInt(1), uint(p.BitLen()+127))
		put(-e, m.Quo(m, p))
	}
	return t
}()

// eiselLemire returns man × 10^exp10 correctly rounded to a float64
// (negated when neg), when a 128-bit approximation of the product decides
// the rounding. It declines — ok false — when it cannot tell (a value
// too close to halfway between two floats), when the result would be
// subnormal or overflow, and when exp10 is outside the table. This is the
// algorithm strconv.ParseFloat runs, so whatever it returns is what
// ParseFloat returns.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	// Normalize man, and estimate the biased binary exponent:
	// 217706/2¹⁶ ≈ log₂10.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	pow := &powers10[exp10-minExp10]
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The low bits may still carry into the kept ones: take the
		// table's low word into the product too.
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits, then round to 53: ties to even, unless the discarded
	// bits are exactly zero and the value may sit exactly halfway.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 0 (or wrapped below it) is subnormal, 0x7FF and up infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
