package litho

import (
	"math"
	"math/big"
)

// e^x = 2^m · 2^(j/64) · e^r for x = (64m + j)·ln2/64 + r, |r| ≤ ln2/128:
// the exp behind every sigmoid (numerics v4). math.Exp cannot inline on
// amd64, and the resist loop calls it three times a pixel.
const (
	expShift = 0x1.8p52              // x·64/ln2 + expShift holds round(x·64/ln2) in its low bits
	invLn2N  = 0x1.71547652b82fep6   // 64/ln2
	ln2hiN   = 0x1.62e42fefa0000p-7  // ln2/64, high part: k·ln2hiN is exact for |k| < 2^17
	ln2loN   = 0x1.cf79abc9e3b3ap-46 // ln2/64 − ln2hiN
)

// expTab[j] is the bits of 2^(j/64), correctly rounded, less j<<46: adding
// k<<46 for k = 64m + j then adds m to the exponent and cancels the j.
var expTab = func() (t [64]uint64) {
	root, p := big.NewFloat(2).SetPrec(256), big.NewFloat(1).SetPrec(256)
	for range 6 {
		root.Sqrt(root) // 2^(1/64)
	}
	for j := range t {
		f, _ := p.Float64()
		t[j] = math.Float64bits(f) - uint64(j)<<46
		p.Mul(p, root)
	}
	return t
}()

// expNeg is e^x within 2 ulp of math.Exp for x in [−700, 0], and math.Exp
// itself elsewhere and for NaN: below −708 the result is subnormal.
func expNeg(x float64) float64 {
	if !(x >= -700 && x <= 0) {
		return math.Exp(x)
	}
	return expReduced(x)
}

// exp3 is expNeg of three arguments in one call, their chains interleaved.
func exp3(a, b, c float64) (float64, float64, float64) {
	if !(a >= -700 && a <= 0 && b >= -700 && b <= 0 && c >= -700 && c <= 0) {
		return expNeg(a), expNeg(b), expNeg(c)
	}
	return expReduced(a), expReduced(b), expReduced(c)
}

// expReduced is e^x for x in [−700, 0], in the inliner's budget (Horner,
// no temporaries) so that exp3's three copies are one block.
func expReduced(x float64) float64 {
	kd := x*invLn2N + expShift
	ki := math.Float64bits(kd) // k in the low bits, two's complement
	kd -= expShift
	r := x - kd*ln2hiN - kd*ln2loN
	s := math.Float64frombits(expTab[ki&63] + ki<<46)
	return s + s*(r+r*r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
}
