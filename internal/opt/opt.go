// Package opt contains the first-order optimizers and straight-through
// estimator helpers shared by the pixel- and circle-level ILT engines.
package opt

import "math"

// Clip returns x limited to [lo, hi].
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// STERound is the forward pass of the straight-through estimator of
// Equation (8): Round(Clip(x, lo, hi)).
func STERound(x, lo, hi float64) float64 {
	return math.Round(Clip(x, lo, hi))
}

// STEGrad is the backward pass of the straight-through estimator of
// Equation (9): the indicator 1{lo ≤ x ≤ hi}(x), which passes the
// downstream gradient through unchanged inside the bounds and kills it
// outside.
func STEGrad(x, lo, hi float64) float64 {
	if x >= lo && x <= hi {
		return 1
	}
	return 0
}

// Adam is the Adam optimizer over a flat parameter vector. Gradients that
// are NaN or infinite are treated as zero so a single bad pixel cannot
// poison the moment estimates.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, v []float64
}

// NewAdam creates an Adam optimizer for n parameters with the given
// learning rate and standard moment defaults (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(n int, lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

// Step applies one Adam update in place: params -= lr·m̂/(√v̂+ε).
func (a *Adam) Step(params, grads []float64) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic("opt: Adam parameter count mismatch")
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, g := range grads {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			g = 0
		}
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
}

// SGD is plain gradient descent with optional momentum, used by the
// level-set engine where Adam's per-parameter scaling distorts the front
// velocity.
type SGD struct {
	LR, Momentum float64

	vel []float64
}

// NewSGD creates an SGD optimizer for n parameters.
func NewSGD(n int, lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make([]float64, n)}
}

// Step applies one SGD update in place.
func (s *SGD) Step(params, grads []float64) {
	if len(params) != len(s.vel) || len(grads) != len(s.vel) {
		panic("opt: SGD parameter count mismatch")
	}
	for i, g := range grads {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			g = 0
		}
		s.vel[i] = s.Momentum*s.vel[i] - s.LR*g
		params[i] += s.vel[i]
	}
}
