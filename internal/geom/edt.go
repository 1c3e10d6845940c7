package geom

import (
	"math"

	"cfaopc/internal/grid"
)

// Unreached is the squared distance EDT.Squared takes to mean "no seed
// here". It is large enough to lose against any real squared distance on
// practical grids yet finite, which keeps the lower-envelope arithmetic
// well defined (the standard Felzenszwalb–Huttenlocher implementation
// trick). Results of Unreached/2 and above mean no seed was in reach.
const Unreached = 1e20

// DistanceTransform returns the exact Euclidean distance from every pixel
// to the nearest foreground pixel of m, using the Felzenszwalb–Huttenlocher
// lower-envelope-of-parabolas algorithm (O(n) per row/column). Foreground
// pixels map to 0; if m has no foreground at all, every pixel maps to +Inf.
func DistanceTransform(m *grid.Real) *grid.Real {
	d := grid.NewReal(m.W, m.H)
	for i, v := range m.Data {
		if v <= 0.5 {
			d.Data[i] = Unreached
		}
	}
	var e EDT
	e.Squared(d.Data, m.W, m.H)
	for i, v := range d.Data {
		if v >= Unreached/2 {
			d.Data[i] = math.Inf(1)
		} else {
			d.Data[i] = math.Sqrt(v)
		}
	}
	return d
}

// EDT holds the scratch of the squared distance transform, so a caller
// that runs many transforms allocates only while the buffers grow.
type EDT struct {
	v      []int     // parabola locations
	z      []float64 // envelope boundaries
	f, out []float64 // one row or column in, out
}

// Squared replaces d — a dense w×h field holding 0 at seed pixels and
// Unreached everywhere else — with the exact squared Euclidean distance
// to the nearest seed: one lower-envelope pass down every column, then
// one along every row.
func (e *EDT) Squared(d []float64, w, h int) {
	if n := max(w, h); len(e.f) < n {
		e.v = make([]int, n)
		e.z = make([]float64, n+1)
		e.f = make([]float64, n)
		e.out = make([]float64, n)
	}
	f, out := e.f, e.out
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			f[y] = d[y*w+x]
		}
		e.pass(f[:h], out[:h])
		for y := 0; y < h; y++ {
			d[y*w+x] = out[y]
		}
	}
	for y := 0; y < h; y++ {
		row := d[y*w : (y+1)*w]
		copy(f, row)
		e.pass(f[:w], row)
	}
}

// SignedDistance returns the signed Euclidean distance field of a binary
// mask: negative inside the foreground, positive outside, with a half-pixel
// offset so the zero level set falls between foreground and background
// pixel centers (the level-set representation used by the DevelSet-style
// engine).
func SignedDistance(m *grid.Real) *grid.Real {
	inv := grid.NewReal(m.W, m.H)
	for i, v := range m.Data {
		if v <= 0.5 {
			inv.Data[i] = 1
		}
	}
	dOut := DistanceTransform(m)  // distance to foreground
	dIn := DistanceTransform(inv) // distance to background
	sd := grid.NewReal(m.W, m.H)
	for i := range sd.Data {
		if m.Data[i] > 0.5 {
			v := dIn.Data[i]
			if math.IsInf(v, 1) {
				v = float64(m.W + m.H) // fully-foreground mask: deep inside
			}
			sd.Data[i] = -v + 0.5
		} else {
			v := dOut.Data[i]
			if math.IsInf(v, 1) {
				v = float64(m.W + m.H) // fully-background mask: far outside
			}
			sd.Data[i] = v - 0.5
		}
	}
	return sd
}

// pass computes the 1D squared-distance transform of sampled function f
// into out (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
// Functions").
func (e *EDT) pass(f, out []float64) {
	n := len(f)
	v, z := e.v, e.z
	k := 0
	v[0] = 0
	z[0] = math.Inf(-1)
	z[1] = math.Inf(1)
	for q := 1; q < n; q++ {
		var s float64
		for {
			p := v[k]
			s = ((f[q] + float64(q*q)) - (f[p] + float64(p*p))) / (2 * float64(q-p))
			if s > z[k] {
				break
			}
			k--
			if k < 0 {
				k = 0
				v[0] = q
				z[0] = math.Inf(-1)
				z[1] = math.Inf(1)
				s = math.NaN()
				break
			}
		}
		if !math.IsNaN(s) {
			k++
			v[k] = q
			z[k] = s
			z[k+1] = math.Inf(1)
		}
	}
	k = 0
	for q := 0; q < n; q++ {
		for z[k+1] < float64(q) {
			k++
		}
		dq := float64(q - v[k])
		out[q] = dq*dq + f[v[k]]
	}
}
