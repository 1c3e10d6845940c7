// Package grid provides dense, row-major 2D arrays of real and complex
// values, plus the elementwise and resampling operations the lithography
// and ILT packages are built on.
//
// Grids are deliberately simple value containers: W columns by H rows, with
// Data[y*W+x] addressing. All operations that combine grids require equal
// dimensions and panic otherwise — dimension mismatches are programmer
// errors, not runtime conditions.
package grid

import (
	"fmt"
	"math"
)

// Real is a dense H×W grid of float64 values in row-major order.
type Real struct {
	W, H int
	Data []float64
}

// NewReal allocates a zeroed W×H real grid.
func NewReal(w, h int) *Real {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	return &Real{W: w, H: h, Data: make([]float64, w*h)}
}

// At returns the value at column x, row y.
func (g *Real) At(x, y int) float64 { return g.Data[y*g.W+x] }

// Set stores v at column x, row y.
func (g *Real) Set(x, y int, v float64) { g.Data[y*g.W+x] = v }

// Clone returns a deep copy of g.
func (g *Real) Clone() *Real {
	c := NewReal(g.W, g.H)
	copy(c.Data, g.Data)
	return c
}

// Fill sets every element to v.
func (g *Real) Fill(v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

func (g *Real) sameShape(o *Real) {
	if g.W != o.W || g.H != o.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", g.W, g.H, o.W, o.H))
	}
}

// Mul sets g = g ⊙ o elementwise and returns g.
func (g *Real) Mul(o *Real) *Real {
	g.sameShape(o)
	for i, v := range o.Data {
		g.Data[i] *= v
	}
	return g
}

// Scale multiplies every element by s and returns g.
func (g *Real) Scale(s float64) *Real {
	for i := range g.Data {
		g.Data[i] *= s
	}
	return g
}

// Sum returns the sum of all elements.
func (g *Real) Sum() float64 {
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s
}

// Dot returns the elementwise inner product Σ g⊙o.
func (g *Real) Dot(o *Real) float64 {
	g.sameShape(o)
	s := 0.0
	for i, v := range g.Data {
		s += v * o.Data[i]
	}
	return s
}

// SqDiff returns Σ (g-o)², the squared L2 distance between the grids.
func (g *Real) SqDiff(o *Real) float64 {
	g.sameShape(o)
	s := 0.0
	for i, v := range g.Data {
		d := v - o.Data[i]
		s += d * d
	}
	return s
}

// MaxAbs returns the maximum absolute element value (0 for empty data).
func (g *Real) MaxAbs() float64 {
	m := 0.0
	for _, v := range g.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Binarize returns a new grid with 1 where g > t and 0 elsewhere.
func (g *Real) Binarize(t float64) *Real {
	b := NewReal(g.W, g.H)
	for i, v := range g.Data {
		if v > t {
			b.Data[i] = 1
		}
	}
	return b
}

// HasNaN reports whether any element is NaN or infinite.
func (g *Real) HasNaN() bool {
	for _, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Complex is a dense H×W grid of complex128 values in row-major order.
type Complex struct {
	W, H int
	Data []complex128
}

// NewComplex allocates a zeroed W×H complex grid.
func NewComplex(w, h int) *Complex {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	return &Complex{W: w, H: h, Data: make([]complex128, w*h)}
}

// At returns the value at column x, row y.
func (g *Complex) At(x, y int) complex128 { return g.Data[y*g.W+x] }

// Set stores v at column x, row y.
func (g *Complex) Set(x, y int, v complex128) { g.Data[y*g.W+x] = v }

// Clone returns a deep copy of g.
func (g *Complex) Clone() *Complex {
	c := NewComplex(g.W, g.H)
	copy(c.Data, g.Data)
	return c
}

// FromReal returns a complex grid whose real parts are copied from r.
func FromReal(r *Real) *Complex {
	c := NewComplex(r.W, r.H)
	for i, v := range r.Data {
		c.Data[i] = complex(v, 0)
	}
	return c
}

// RealPart returns a real grid holding the real components of c.
func RealPart(c *Complex) *Real {
	r := NewReal(c.W, c.H)
	for i, v := range c.Data {
		r.Data[i] = real(v)
	}
	return r
}
