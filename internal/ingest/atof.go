package ingest

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseFloat parses a metric or time field. Plain decimals of at most 19
// significant digits take atof's exact fast path; every other field, and
// every one atof declines, goes through strconv.ParseFloat, so a field
// parses to strconv's bits and fails with strconv's error.
func parseFloat(b []byte) (float64, error) {
	v, ok := atof(b)
	if ok {
		return v, nil // atof's results are finite
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil {
		err = checkFinite(v)
	}
	return v, err
}

// atof parses s when it is [+-]?digits[.digits]?([eE][+-]?digits)? (at
// least one mantissa digit, either side of the point) with at most 19
// significant digits, and the value is zero (±0, whatever the exponent)
// or, with a decimal exponent in [pow10Min, pow10Max], finite and not
// subnormal. It returns the correctly rounded float64, which is
// strconv.ParseFloat's, and ok; otherwise ok is false and the caller
// falls back to strconv.
func atof(s []byte) (f float64, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, i = s[0] == '-', 1
	}
	var man uint64
	nd, exp10, digits := 0, 0, false // significant digits, exponent, any digit
	for ; i < len(s) && s[i] == '0'; i++ {
		digits = true
	}
	i, man, nd = mantissa(s, i, man, nd)
	digits = digits || nd > 0
	if i < len(s) && s[i] == '.' {
		i++
		if nd == 0 {
			for ; i < len(s) && s[i] == '0'; i++ {
				digits = true
				exp10--
			}
		}
		j := i
		i, man, nd = mantissa(s, i, man, nd)
		digits = digits || i > j
		exp10 -= i - j
	}
	if !digits || nd > 19 {
		return 0, false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		if i == len(s) {
			return 0, false
		}
		e := 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(s[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if i != len(s) {
		return 0, false
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		// Clinger's fast path: man and 10^|exp10| are exact float64s,
		// so one multiply or divide rounds once, correctly.
		f = float64(man)
		if exp10 >= 0 {
			f *= exactPow10[exp10]
		} else {
			f /= exactPow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// mantissa appends the digits of s from i on to man, eight at a time
// while eight are there and man has room for them, and returns where the
// digits end. nd counts man's digits; past 19 it keeps counting but man
// is no longer meaningful (atof then declines).
func mantissa(s []byte, i int, man uint64, nd int) (int, uint64, int) {
	for nd <= 11 && len(s)-i >= 8 {
		v := binary.LittleEndian.Uint64(s[i:])
		if !eightDigits(v) {
			break
		}
		man = man*100_000_000 + uint64(parseEight(v))
		i, nd = i+8, nd+8
	}
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		man = man*10 + uint64(s[i]-'0')
		nd++
	}
	return i, man, nd
}

// eightDigits reports whether all eight bytes of the little-endian v are
// ASCII digits: each byte's high nibble is 3 and stays 3 after adding 6.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|(((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) == 0x3333333333333333
}

// parseEight is the value of the eight ASCII digits in v, the first
// digit in the low byte (SWAR: pairs, then quads, then the eight).
func parseEight(v uint64) uint32 {
	v -= 0x3030303030303030
	v = v*10 + v>>8
	v = ((v&0x000000FF000000FF)*(100+1_000_000<<32) + (v>>16&0x000000FF000000FF)*(1+10_000<<32)) >> 32
	return uint32(v)
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Min and pow10Max bound the decimal exponents pow10 covers.
const pow10Min, pow10Max = -348, 347

// pow10[q-pow10Min] is 10^q's 128-bit mantissa, rounded down, as {low,
// high} 64-bit halves: the top 128 bits of 10^q, whose binary exponent
// is implied (eiselLemire). Computed once, exactly, at init.
var pow10 = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	mask, lo, hi := new(big.Int).SetUint64(math.MaxUint64), new(big.Int), new(big.Int)
	set := func(q int, x *big.Int) {
		t[q-pow10Min] = [2]uint64{lo.And(x, mask).Uint64(), hi.Rsh(x, 64).Uint64()}
	}
	p, x, ten := big.NewInt(1), new(big.Int), big.NewInt(10) // p = 10^k
	for k := 0; k <= -pow10Min; k++ {
		if k <= pow10Max {
			// The top 128 bits of 10^k: 10^k * 2^128 / 2^bitlen.
			set(k, x.Rsh(x.Lsh(p, 128), uint(p.BitLen())))
		}
		if k > 0 {
			// 10^-k: floor(2^s / 10^k) with s making it 128 bits long.
			set(-k, x.Quo(x.Lsh(big.NewInt(1), uint(127+p.BitLen())), p))
		}
		p.Mul(p, ten)
	}
	return t
}()

// eiselLemire is the Eisel–Lemire conversion of man * 10^exp10 (man
// non-zero, exp10 in [pow10Min, pow10Max]): one or two 64x64-bit
// multiplies by 10^exp10's truncated mantissa, then rounding to 53 bits.
// It declines (ok false) where the truncation leaves the rounding in
// doubt and where the result would be subnormal or overflow; see
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	p := &pow10[exp10-pow10Min]
	// Normalize man so its top bit is set; 217706/2^16 ~ log2(10)
	// places 10^exp10's binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, p[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The low bits may carry into the kept ones: add the product
		// with the mantissa's low half.
		yHi, yLo := bits.Mul64(man, p[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // exactly halfway after truncation: undecided
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero, or past the largest finite
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
