package litho

import (
	"math"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
)

// BlurMask convolves a mask with an isotropic Gaussian of the given sigma
// (in pixels), modeling the short-range e-beam write blur the paper cites
// as a 20–40 nm effect that makes densely fractured rectangular shots
// error-prone. Applying it to a fractured mask before simulation shows how
// robust a shot decomposition is to the writer's point-spread function.
//
// The convolution is evaluated in the frequency domain with the exact
// Gaussian transfer function exp(-2π²σ²f²), so no kernel truncation is
// involved; output values are clamped to [0, 1].
func BlurMask(m *grid.Real, sigmaPx float64) *grid.Real {
	if sigmaPx <= 0 {
		return m.Clone()
	}
	n := m.W
	c := grid.FromReal(m)
	fft.Forward2D(c)
	for ky := 0; ky < m.H; ky++ {
		fy := float64(ky)
		if ky > m.H/2 {
			fy = float64(ky - m.H)
		}
		fy /= float64(m.H)
		for kx := 0; kx < n; kx++ {
			fx := float64(kx)
			if kx > n/2 {
				fx = float64(kx - n)
			}
			fx /= float64(n)
			g := expNeg(-2 * math.Pi * math.Pi * sigmaPx * sigmaPx * (fx*fx + fy*fy))
			c.Data[ky*n+kx] *= complex(g, 0)
		}
	}
	fft.Inverse2D(c)
	out := grid.NewReal(m.W, m.H)
	for i, v := range c.Data {
		x := real(v)
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		out.Data[i] = x
	}
	return out
}
