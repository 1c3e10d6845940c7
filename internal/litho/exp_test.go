package litho

import (
	"math"
	"math/rand"
	"testing"
)

// ulps is the distance between two non-negative floats in units in the
// last place: adjacent floats differ by one.
func ulps(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		return -d
	}
	return d
}

// expNeg and exp3 stay within 2 ulp of math.Exp over [−745, 0] — half the
// samples across the whole range, half across [−50, 0] where the resist
// and render sigmoids evaluate it — and equal it at the ends: ±0, the
// subnormal results below −708, −Inf, NaN and the x > 0 fallback.
func TestExpNegMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	worst, at := int64(0), 0.0
	for i := 0; i < 1<<20; i++ {
		x := -745 * rng.Float64()
		if i%2 == 1 {
			x = -50 * rng.Float64()
		}
		if d := ulps(expNeg(x), math.Exp(x)); d > worst {
			worst, at = d, x
		}
	}
	t.Logf("worst error %d ulp at x = %v", worst, at)
	if worst > 2 {
		t.Fatalf("expNeg(%v) is %d ulp from math.Exp, want ≤ 2", at, worst)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1e-300, -700, -700.5, -708.5, -720, -740, -745, -745.2, -800, math.Inf(-1), 1, 710} {
		if got, want := expNeg(x), math.Exp(x); got != want {
			t.Errorf("expNeg(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
	if !math.IsNaN(expNeg(math.NaN())) {
		t.Error("expNeg(NaN) is not NaN")
	}
	for i := 0; i < 1<<16; i++ {
		a, b, c := -50*rng.Float64(), -745*rng.Float64(), -800*rng.Float64()
		if i%3 == 0 {
			b = math.NaN()
		}
		ea, eb, ec := exp3(a, b, c)
		if ea != expNeg(a) || !(eb == expNeg(b) || math.IsNaN(eb) && math.IsNaN(b)) || ec != expNeg(c) {
			t.Fatalf("exp3(%v, %v, %v) = %v, %v, %v; expNeg gives %v, %v, %v", a, b, c, ea, eb, ec, expNeg(a), expNeg(b), expNeg(c))
		}
	}
}
