// Package gridkit holds the grid helpers that tests in several packages
// share and no binary links; only _test.go files import it.
//
//   - whole-grid arithmetic and comparisons: Clone, Fill, Scale, Sum, Dot,
//     SqDiff, HasNaN, and the real/complex conversions;
//   - binary morphology with a disk element, to make over- and
//     under-printed masks;
//   - BlurMask, the e-beam write blur a shot decomposition's robustness is
//     checked against.
//
// It imports only grid and fft, so every other package's internal tests
// can import it; grid's tests reach it from the external test package.
package gridkit

import (
	"fmt"
	"image"
	"math"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
)

// Clone returns a deep copy of g.
func Clone(g *grid.Real) *grid.Real {
	c := grid.NewReal(g.W, g.H)
	copy(c.Data, g.Data)
	return c
}

// Fill sets every element of g to v.
func Fill(g *grid.Real, v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Scale multiplies every element of g by s and returns g.
func Scale(g *grid.Real, s float64) *grid.Real {
	for i := range g.Data {
		g.Data[i] *= s
	}
	return g
}

// Sum returns the sum of all elements of g.
func Sum(g *grid.Real) float64 {
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s
}

func sameShape(a, b *grid.Real) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("gridkit: shape mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
}

// Dot returns the elementwise inner product Σ a⊙b.
func Dot(a, b *grid.Real) float64 {
	sameShape(a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// SqDiff returns Σ (a-b)², the squared L2 distance between the grids.
func SqDiff(a, b *grid.Real) float64 {
	sameShape(a, b)
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return s
}

// HasNaN reports whether any element of g is NaN or infinite.
func HasNaN(g *grid.Real) bool {
	for _, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// FromReal returns a complex grid whose real parts are copied from r.
func FromReal(r *grid.Real) *grid.Complex {
	c := grid.NewComplex(r.W, r.H)
	for i, v := range r.Data {
		c.Data[i] = complex(v, 0)
	}
	return c
}

// RealPart returns a real grid holding the real components of c.
func RealPart(c *grid.Complex) *grid.Real {
	r := grid.NewReal(c.W, c.H)
	for i, v := range c.Data {
		r.Data[i] = real(v)
	}
	return r
}

// DiskElement returns the offsets of a discrete disk of the given radius,
// the structuring element of Dilate and Erode.
func DiskElement(radius int) []image.Point {
	var pts []image.Point
	r2 := radius * radius
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy <= r2 {
				pts = append(pts, image.Point{dx, dy})
			}
		}
	}
	return pts
}

// Dilate returns m dilated by the structuring element.
func Dilate(m *grid.Real, elem []image.Point) *grid.Real {
	out := grid.NewReal(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.Data[y*m.W+x] <= 0.5 {
				continue
			}
			for _, d := range elem {
				nx, ny := x+d.X, y+d.Y
				if nx >= 0 && nx < m.W && ny >= 0 && ny < m.H {
					out.Data[ny*m.W+nx] = 1
				}
			}
		}
	}
	return out
}

// Erode returns m eroded by the structuring element (pixels whose whole
// element neighbourhood is foreground; the border acts as background).
func Erode(m *grid.Real, elem []image.Point) *grid.Real {
	out := grid.NewReal(m.W, m.H)
	for y := 0; y < m.H; y++ {
	pixel:
		for x := 0; x < m.W; x++ {
			for _, d := range elem {
				nx, ny := x+d.X, y+d.Y
				if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H || m.Data[ny*m.W+nx] <= 0.5 {
					continue pixel
				}
			}
			out.Data[y*m.W+x] = 1
		}
	}
	return out
}

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
		return Clone(m)
	}
	n := m.W
	c := FromReal(m)
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
			g := math.Exp(-2 * math.Pi * math.Pi * sigmaPx * sigmaPx * (fx*fx + fy*fy))
			c.Data[ky*n+kx] *= complex(g, 0)
		}
	}
	fft.Inverse2D(c)
	out := grid.NewReal(m.W, m.H)
	for i, v := range c.Data {
		out.Data[i] = min(max(real(v), 0), 1)
	}
	return out
}
