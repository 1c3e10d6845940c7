// Package fft implements one- and two-dimensional discrete Fourier
// transforms over complex128 slices. It exists so the lithography
// simulator can evaluate Hopkins convolutions as frequency-domain products
// without external dependencies.
//
// Every length whose prime factors are all ≤ 5 — which includes the
// powers of two and every window the tiled flow uses (96, 128, 160, 192,
// 256) — runs one Stockham autosort mixed-radix plan: radix-4 stages
// first, then at most one radix-2, then radix-3 and radix-5, each a
// hard-coded butterfly with its twiddle table built once in NewPlan. A
// stage reads one buffer and writes the other, so no bit-reversal pass is
// needed and both access patterns are unit-stride in the inner loop; the
// last stage touches the same indices it reads and therefore always lands
// in the caller's slice. Any other length falls back to Bluestein's
// chirp-z convolution, evaluated on a Stockham plan of the smallest
// 5-smooth length ≥ 2n−1.
//
// A plan transforms one sequence or several interleaved ones: with nb
// sequences stored element-major (x[k·nb+b] is element k of sequence b)
// every stage runs unchanged with its stride multiplied by nb, and each
// sequence sees exactly the operations of a transform of its own. The 2-D
// column pass uses that on blocks of blockCols adjacent columns, which are
// rows of the grid copied as they lie: no transpose, and inner loops at
// least blockCols long.
//
// A transform needs O(n) scratch per sequence. Plans are immutable after
// NewPlan apart from a sync.Pool of scratch buffers, so one plan may be
// shared by any number of goroutines; a transform takes one buffer for
// its duration and allocates nothing once the pool is warm. The
// package-level helpers find their plan in a build-once table that is
// read without locking.
//
// Transforms use the engineering convention: Forward applies
// X[k] = Σ x[n]·exp(-2πi·kn/N) with no scaling, Inverse applies the
// conjugate kernel scaled by 1/N, so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// blockCols is how many adjacent columns the 2-D column pass transforms
// at once, interleaved. A constant chosen by measurement (DESIGN §6 has
// the table): litho.LossGrad reads the same at 8, 16 and 32 and slower
// at 4; 16 keeps a 192-row block and its ping-pong buffer under 100 KB.
const blockCols = 16

// Plan holds the precomputed tables for transforms of one fixed length.
// It is safe for concurrent use.
type Plan struct {
	n      int
	stages []stage // Stockham stages, in execution order; nil for a Bluestein plan

	// Bluestein fallback (lengths with a prime factor > 5): the DFT is
	// chirp ⊙ (filter ⊛ (chirp ⊙ x)), with the circular convolution run
	// on conv.
	chirp  []complex128 // exp(-iπk²/n), length n
	filter []complex128 // spectrum of conj(chirp) wrapped to conv.n, times 1/conv.n
	conv   *Plan

	scratch int       // complex128 values the transform of one sequence needs
	work    sync.Pool // *[]complex128 of length blockCols*(n+scratch)
}

// stage is one Stockham pass: it splits m·radix-point sub-transforms,
// interleaved with stride s, into radix sub-transforms of m points.
type stage struct {
	radix, m, s int
	// tw[p*(radix-1)+k-1] = exp(-2πi·p·k/(m·radix)) for p in [0,m), k in
	// [1,radix). Empty when m == 1: the last stage multiplies by 1 only.
	tw []complex128
}

// NewPlan builds a transform plan for length n.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n}
	if radices, ok := factor(n); ok {
		p.stages = makeStages(n, radices)
		p.scratch = n
		return p
	}
	// Bluestein: kn = (k² + n² − (k−n)²)/2 turns the DFT into a
	// convolution with the conjugate chirp. The two transforms of the
	// convolution both run forward; the second one's index reversal and
	// 1/m are folded into bluestein's read-back and the filter.
	m := 2*n - 1
	for !smooth(m) {
		m++
	}
	p.conv = NewPlan(m)
	p.scratch = 2 * m
	p.chirp = make([]complex128, n)
	p.filter = make([]complex128, m)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the angle small for large k.
		sin, cos := math.Sincos(-math.Pi * float64((k*k)%(2*n)) / float64(n))
		p.chirp[k] = complex(cos, sin)
		p.filter[k] = complex(cos, -sin)
		if k > 0 {
			p.filter[m-k] = complex(cos, -sin)
		}
	}
	p.conv.transform(p.filter, make([]complex128, m), 1)
	inv := 1 / float64(m)
	for i, v := range p.filter {
		p.filter[i] = scale(v, inv)
	}
	return p
}

// factor splits n into the plan's radix sequence. ok is false when n has a
// prime factor above 5.
func factor(n int) (radices []int, ok bool) {
	for _, r := range [...]int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

func smooth(n int) bool {
	_, ok := factor(n)
	return ok
}

func makeStages(n int, radices []int) []stage {
	stages := make([]stage, len(radices))
	s := 1
	for i, r := range radices {
		m := n / r
		st := stage{radix: r, m: m, s: s}
		if m > 1 {
			st.tw = make([]complex128, m*(r-1))
			for p := 0; p < m; p++ {
				for k := 1; k < r; k++ {
					sin, cos := math.Sincos(-2 * math.Pi * float64(p*k) / float64(n))
					st.tw[p*(r-1)+k-1] = complex(cos, sin)
				}
			}
		}
		stages[i] = st
		n, s = m, s*r
	}
	return stages
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// getWork takes a scratch buffer from the plan's pool; the caller returns
// it with p.work.Put. It holds a block of blockCols interleaved sequences
// and the scratch transform needs for them; a 1-D transform uses the
// front of it as scratch.
func (p *Plan) getWork() *[]complex128 {
	if w, _ := p.work.Get().(*[]complex128); w != nil {
		return w
	}
	w := make([]complex128, blockCols*(p.n+p.scratch))
	return &w
}

func (p *Plan) check(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length %d does not match plan %d", len(x), p.n))
	}
}

// Forward computes the in-place forward DFT of x, which must have length
// Len().
func (p *Plan) Forward(x []complex128) {
	p.check(x)
	w := p.getWork()
	p.transform(x, *w, 1)
	p.work.Put(w)
}

// Inverse computes the in-place inverse DFT of x (scaled by 1/N).
func (p *Plan) Inverse(x []complex128) {
	p.check(x)
	w := p.getWork()
	p.inverse(x, *w)
	p.work.Put(w)
}

// inverse is transform followed by the index reversal and 1/n that turn a
// forward DFT into the inverse one: x̌[k] = X[(−k) mod n]/n.
func (p *Plan) inverse(x, scratch []complex128) {
	p.transform(x, scratch, 1)
	inv := 1 / float64(p.n)
	x[0] = scale(x[0], inv)
	for i, j := 1, p.n-1; i <= j; i, j = i+1, j-1 {
		x[i], x[j] = scale(x[j], inv), scale(x[i], inv)
	}
}

// transform computes, in place, the unscaled forward DFT of each of the nb
// sequences interleaved in x: element k of sequence b is x[k*nb+b].
// scratch must hold nb*p.scratch values and not overlap x.
func (p *Plan) transform(x, scratch []complex128, nb int) {
	if p.conv != nil {
		p.bluestein(x, scratch, nb)
		return
	}
	// Stages ping-pong between x and scratch; the last one reads and
	// writes the same index set, so it may run in place and always
	// targets x. Interleaving multiplies every stride by nb: q then spans
	// (the 1-D q) × (sequence), and the first-stage s == 1 form is the
	// 1-D transform's alone.
	scratch = scratch[:nb*p.n]
	last := len(p.stages) - 1
	for i := range p.stages {
		st := p.stages[i]
		st.s *= nb
		src, dst := x, scratch
		if i%2 == 1 {
			src, dst = scratch, x
		}
		if i == last {
			dst = x
		}
		st.run(src, dst)
	}
}

func (p *Plan) bluestein(x, scratch []complex128, nb int) {
	n, m := p.n, p.conv.n
	a, inner := scratch[:nb*m], scratch[nb*m:2*nb*m]
	for k, c := range p.chirp {
		for b, v := range x[k*nb:][:nb] {
			a[k*nb+b] = v * c
		}
	}
	clear(a[n*nb:])
	p.conv.transform(a, inner, nb)
	for i, f := range p.filter {
		for b := range a[i*nb:][:nb] {
			a[i*nb+b] *= f
		}
	}
	p.conv.transform(a, inner, nb)
	for k, c := range p.chirp {
		for b, v := range a[(m-k)%m*nb:][:nb] {
			x[k*nb+b] = v * c
		}
	}
}

func (st *stage) run(x, y []complex128) {
	switch st.radix {
	case 4:
		st.radix4(x, y)
	case 2:
		st.radix2(x, y)
	case 3:
		st.radix3(x, y)
	case 5:
		st.radix5(x, y)
	}
}

// scale multiplies a complex value by a real one.
func scale(v complex128, c float64) complex128 { return complex(c*real(v), c*imag(v)) }

// mulNegI multiplies by −i.
func mulNegI(v complex128) complex128 { return complex(imag(v), -real(v)) }

// Each radixR pass computes, for p in [0,m) and q in [0,s):
//
//	a_j = x[q + s·(p + j·m)]                j in [0,R)
//	y[q + s·(R·p + k)] = w^(p·k) · Σ_j a_j·ω^(jk)   k in [0,R)
//
// with ω = exp(-2πi/R) and w = exp(-2πi/(m·R)). The p == 0 block has unit
// twiddles and skips the multiplications; it is the whole of the last
// stage. x and y may be the same slice only when m == 1.

func (st *stage) radix4(x, y []complex128) {
	m, s := st.m, st.s
	if s == 1 && m > 1 {
		// First stage: one butterfly per p, contiguous output.
		x0, x1, x2, x3 := x[:m], x[m:2*m], x[2*m:3*m], x[3*m:4*m]
		tw := st.tw[:3*m]
		for p := range x0 {
			a0, a1, a2, a3 := x0[p], x1[p], x2[p], x3[p]
			t0, t1, t2, t3 := a0+a2, a0-a2, a1+a3, mulNegI(a1-a3)
			o := y[4*p : 4*p+4 : 4*p+4]
			w := tw[3*p : 3*p+3 : 3*p+3]
			o[0] = t0 + t2
			o[1] = (t1 + t3) * w[0]
			o[2] = (t0 - t2) * w[1]
			o[3] = (t1 - t3) * w[2]
		}
		return
	}
	for p := 0; p < m; p++ {
		i, o := s*p, 4*s*p
		x0, x1, x2, x3 := x[i:i+s], x[i+s*m:][:s], x[i+2*s*m:][:s], x[i+3*s*m:][:s]
		y0, y1, y2, y3 := y[o:o+s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s]
		if p == 0 {
			for q := range x0 {
				a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
				t0, t1, t2, t3 := a0+a2, a0-a2, a1+a3, mulNegI(a1-a3)
				y0[q] = t0 + t2
				y1[q] = t1 + t3
				y2[q] = t0 - t2
				y3[q] = t1 - t3
			}
			continue
		}
		w1, w2, w3 := st.tw[3*p], st.tw[3*p+1], st.tw[3*p+2]
		for q := range x0 {
			a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
			t0, t1, t2, t3 := a0+a2, a0-a2, a1+a3, mulNegI(a1-a3)
			y0[q] = t0 + t2
			y1[q] = (t1 + t3) * w1
			y2[q] = (t0 - t2) * w2
			y3[q] = (t1 - t3) * w3
		}
	}
}

func (st *stage) radix2(x, y []complex128) {
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		i, o := s*p, 2*s*p
		x0, x1 := x[i:i+s], x[i+s*m:][:s]
		y0, y1 := y[o:o+s], y[o+s:][:s]
		if p == 0 {
			for q := range x0 {
				a0, a1 := x0[q], x1[q]
				y0[q] = a0 + a1
				y1[q] = a0 - a1
			}
			continue
		}
		w1 := st.tw[p]
		for q := range x0 {
			a0, a1 := x0[q], x1[q]
			y0[q] = a0 + a1
			y1[q] = (a0 - a1) * w1
		}
	}
}

// sin3 is sin(2π/3); cos(2π/3) is −1/2.
const sin3 = 0.86602540378443864676372317075294

// butterfly3 is the 3-point DFT.
func butterfly3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	t1 := a1 + a2
	t2 := a0 - scale(t1, 0.5)
	t3 := mulNegI(scale(a1-a2, sin3))
	return a0 + t1, t2 + t3, t2 - t3
}

func (st *stage) radix3(x, y []complex128) {
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		i, o := s*p, 3*s*p
		x0, x1, x2 := x[i:i+s], x[i+s*m:][:s], x[i+2*s*m:][:s]
		y0, y1, y2 := y[o:o+s], y[o+s:][:s], y[o+2*s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q], y2[q] = butterfly3(x0[q], x1[q], x2[q])
			}
			continue
		}
		w1, w2 := st.tw[2*p], st.tw[2*p+1]
		for q := range x0 {
			b0, b1, b2 := butterfly3(x0[q], x1[q], x2[q])
			y0[q] = b0
			y1[q] = b1 * w1
			y2[q] = b2 * w2
		}
	}
}

// cos(2π/5), cos(4π/5), sin(2π/5), sin(4π/5).
const (
	cos51 = 0.30901699437494742410229341718282
	cos52 = -0.80901699437494742410229341718282
	sin51 = 0.95105651629515357211643933337938
	sin52 = 0.58778525229247312916870595463907
)

// butterfly5 is the 5-point DFT.
func butterfly5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	t1, t2, t3, t4 := a1+a4, a2+a3, a1-a4, a2-a3
	m1 := a0 + scale(t1, cos51) + scale(t2, cos52)
	m2 := a0 + scale(t1, cos52) + scale(t2, cos51)
	n1 := mulNegI(scale(t3, sin51) + scale(t4, sin52))
	n2 := mulNegI(scale(t3, sin52) - scale(t4, sin51))
	return a0 + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1
}

func (st *stage) radix5(x, y []complex128) {
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		i, o := s*p, 5*s*p
		x0, x1, x2, x3, x4 := x[i:i+s], x[i+s*m:][:s], x[i+2*s*m:][:s], x[i+3*s*m:][:s], x[i+4*s*m:][:s]
		y0, y1, y2, y3, y4 := y[o:o+s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s], y[o+4*s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q], y2[q], y3[q], y4[q] = butterfly5(x0[q], x1[q], x2[q], x3[q], x4[q])
			}
			continue
		}
		w := st.tw[4*p : 4*p+4 : 4*p+4]
		for q := range x0 {
			b0, b1, b2, b3, b4 := butterfly5(x0[q], x1[q], x2[q], x3[q], x4[q])
			y0[q] = b0
			y1[q] = b1 * w[0]
			y2[q] = b2 * w[1]
			y3[q] = b3 * w[2]
			y4[q] = b4 * w[3]
		}
	}
}

// plans is the package-level plan table: an immutable map replaced by
// copy-on-write, so lookups are one atomic load and a map read.
var plans atomic.Pointer[map[int]*Plan]

// cachedPlan returns the shared plan for length n, building it on first
// use. Goroutines racing to build the same length all end up with the one
// plan whose table swap won.
func cachedPlan(n int) *Plan {
	for {
		old := plans.Load()
		if old != nil {
			if p, ok := (*old)[n]; ok {
				return p
			}
		}
		next := map[int]*Plan{n: NewPlan(n)}
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		if plans.CompareAndSwap(old, &next) {
			return next[n]
		}
	}
}

// Forward computes the in-place forward DFT of x using a cached plan.
func Forward(x []complex128) { cachedPlan(len(x)).Forward(x) }

// Inverse computes the in-place inverse DFT of x using a cached plan.
func Inverse(x []complex128) { cachedPlan(len(x)).Inverse(x) }
