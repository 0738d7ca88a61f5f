package gebe

import "strconv"

// pow10 holds the powers of ten a float64 represents exactly: 10²² =
// 2²²·5²² and 5²² < 2⁵³.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat is strconv.ParseFloat(string(b), 64), bit for bit and
// error for error. The decimals an embedding file is made of take the
// exact fast path of parseDecimal; everything else — hex floats, Inf,
// NaN, long mantissas, large exponents, malformed text — goes to
// strconv.
func parseFloat(b []byte) (float64, error) {
	if x, ok := parseDecimal(b); ok {
		return x, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseDecimal parses b = [+-]digits[.digits][(e|E)[+-]digits], with
// digits on at least one side of the point, when its value is m·10^e for
// an integer m ≤ 2⁵³ of at most 19 significant digits and |e| ≤ 22. Then
// both float64(m) and 10^|e| are exact, so the one IEEE multiply or
// divide that combines them rounds the exact decimal value once, to
// nearest-even: the correctly rounded result strconv.ParseFloat returns
// (Clinger's fast path, as in Lemire, "Number parsing at a gigabyte per
// second", 2021). ok is false for every other input, valid or not.
func parseDecimal(b []byte) (x float64, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, i = b[0] == '-', 1
	}
	var (
		mant uint64
		nd   int // significant digits: those from the first nonzero one on
		exp  int // decimal exponent of mant's last digit
	)
	start := i
	i, mant, nd = digitRun(b, i, mant, nd)
	n := i - start
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		i, mant, nd = digitRun(b, i, mant, nd)
		n += i - start
		exp = start - i
	}
	if n == 0 || nd > 19 {
		return 0, false
	}
	if i < len(b) {
		if b[i] != 'e' && b[i] != 'E' {
			return 0, false
		}
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i == len(b) {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' || e > 1000 {
				return 0, false
			}
			e = e*10 + int(c-'0')
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if mant > 1<<53 {
		return 0, false
	}
	x = float64(mant)
	if neg {
		x = -x
	}
	switch {
	case exp == 0:
		return x, true
	case exp > 0 && exp <= 22:
		return x * pow10[exp], true
	case exp < 0 && exp >= -22:
		return x / pow10[-exp], true
	}
	return 0, false
}

// digitRun accumulates the run of decimal digits at b[i:] into mant and
// returns the index after it, with nd counting the digits from mant's
// first nonzero one. Past 19 such digits mant may wrap; parseDecimal
// refuses those inputs.
func digitRun(b []byte, i int, mant uint64, nd int) (int, uint64, int) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
		if mant != 0 {
			nd++
		}
	}
	return i, mant, nd
}
