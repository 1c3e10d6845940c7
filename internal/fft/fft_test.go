package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"cfaopc/internal/grid"
)

// naiveDFT is the O(n²) reference implementation: sign −1 is the forward
// transform, +1 the unscaled inverse. k·j is reduced mod n first so the
// angle keeps full precision at every length.
func naiveDFT(x []complex128, sign float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			sin, cos := math.Sincos(sign * 2 * math.Pi * float64(k*j%n) / float64(n))
			s += x[j] * complex(cos, sin)
		}
		out[k] = s
	}
	return out
}

// mixedLengths covers every radix alone and combined, the flow's window
// sizes, and the Bluestein fallback (7, 97, 112).
var mixedLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 15, 32, 45, 48, 64, 75, 96, 97, 112, 128, 160, 192, 200, 243, 256}

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// Every length 1..256, forward and inverse, against the O(n²) oracle. The
// bound is 4·ε·n on the largest absolute error for inputs in the unit
// square (measured: at most 2·ε·n, reached by the Bluestein fallback).
func TestEveryLengthMatchesNaive(t *testing.T) {
	const eps = 0x1p-52
	for n := 1; n <= 256; n++ {
		x := randomSignal(n, int64(n))
		bound := 4 * eps * float64(n)

		got := append([]complex128(nil), x...)
		Forward(got)
		if e := maxErr(got, naiveDFT(x, -1)); e > bound {
			t.Errorf("n=%d forward: max error %g > %g", n, e, bound)
		}

		got = append(got[:0], x...)
		Inverse(got)
		want := naiveDFT(x, +1)
		for i := range want {
			want[i] /= complex(float64(n), 0)
		}
		if e := maxErr(got, want); e > bound/float64(n) {
			t.Errorf("n=%d inverse: max error %g > %g", n, e, bound/float64(n))
		}
	}
}

// Which lengths get the Stockham plan and which fall back is part of the
// performance contract: every flow window must be on the left.
func TestPlanKinds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 9, 10, 25, 30, 48, 64, 96, 125, 128, 160, 192, 243, 256, 1024, 1920} {
		if p := NewPlan(n); p.conv != nil || len(p.stages) == 0 && n > 1 {
			t.Errorf("n=%d: want a Stockham plan, got the Bluestein fallback", n)
		}
	}
	for n, m := range map[int]int{7: 15, 11: 24, 97: 200, 112: 225, 119: 240, 251: 512} {
		p := NewPlan(n)
		if p.conv == nil {
			t.Errorf("n=%d: want the Bluestein fallback", n)
			continue
		}
		if p.conv.n != m || p.conv.conv != nil {
			t.Errorf("n=%d: convolution length %d, want the 5-smooth %d", n, p.conv.n, m)
		}
	}
	var radices []int
	for _, st := range NewPlan(192).stages {
		radices = append(radices, st.radix)
	}
	if fmt.Sprint(radices) != "[4 4 4 3]" {
		t.Errorf("192 = %v, want [4 4 4 3]", radices)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range mixedLengths {
		x := randomSignal(n, int64(100+n))
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		if e := maxErr(x, y); e > 1e-14*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	if p.Len() != 8 {
		t.Fatalf("Len = %d", p.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestNewPlanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlan(0) did not panic")
		}
	}()
	NewPlan(0)
}

func TestImpulseTransform(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT[%d] = %v, want 1", i, v)
		}
	}
}

// Property: linearity — FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestLinearity(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		n := mixedLengths[int(pick)%len(mixedLengths)]
		rng := rand.New(rand.NewSource(seed))
		a := complex(rng.Float64(), rng.Float64())
		b := complex(rng.Float64(), rng.Float64())
		x := randomSignal(n, seed+1)
		y := randomSignal(n, seed+2)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + b*y[i]
		}
		Forward(lhs)
		Forward(x)
		Forward(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*x[i]+b*y[i])) > 1e-13*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — Σ|x|² == (1/N)·Σ|X|².
func TestParseval(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		n := mixedLengths[int(pick)%len(mixedLengths)]
		x := randomSignal(n, seed)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-12*timeE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: time shift ↔ frequency phase ramp.
func TestShiftTheorem(t *testing.T) {
	n := 32
	x := randomSignal(n, 7)
	shifted := make([]complex128, n)
	const s = 5
	for i := range shifted {
		shifted[i] = x[(i+s)%n]
	}
	Forward(x)
	Forward(shifted)
	for k := 0; k < n; k++ {
		phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
		if cmplx.Abs(shifted[k]-x[k]*phase) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d", k)
		}
	}
}

// randomGrid fills a w×h grid with values from the unit square.
func randomGrid(w, h int, seed int64) *grid.Complex {
	g := grid.NewComplex(w, h)
	copy(g.Data, randomSignal(w*h, seed))
	return g
}

// Sizes are non-square, mix both plan kinds, and are all narrower than
// one column block (colpass_ref_test.go has the wide and ragged ones).
var sizes2D = [][2]int{{4, 3}, {6, 5}, {10, 7}, {13, 12}, {16, 8}}

func TestForward2DMatchesNaive(t *testing.T) {
	for _, wh := range sizes2D {
		w, h := wh[0], wh[1]
		g := randomGrid(w, h, 3)
		got := cloneComplex(g)
		Forward2D(got)
		for ky := 0; ky < h; ky++ {
			for kx := 0; kx < w; kx++ {
				var s complex128
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						ang := -2 * math.Pi * (float64(kx*x)/float64(w) + float64(ky*y)/float64(h))
						s += g.At(x, y) * cmplx.Exp(complex(0, ang))
					}
				}
				if cmplx.Abs(got.At(kx, ky)-s) > 1e-12 {
					t.Fatalf("%dx%d: 2D DFT mismatch at (%d,%d): %v vs %v", w, h, kx, ky, got.At(kx, ky), s)
				}
			}
		}
	}
}

func Test2DRoundTrip(t *testing.T) {
	for _, wh := range append(sizes2D, [2]int{96, 96}, [2]int{97, 64}) {
		g := randomGrid(wh[0], wh[1], 11)
		orig := cloneComplex(g)
		Forward2D(g)
		Inverse2D(g)
		if e := maxErr(g.Data, orig.Data); e > 1e-13 {
			t.Fatalf("%dx%d: 2D roundtrip error %g", wh[0], wh[1], e)
		}
	}
}

// bandOf reports whether index i holds a wrapped frequency |f| ≤ half on
// an n-point axis.
func bandOf(i, n, half int) bool { return i <= half || i >= n-half }

// The band transforms must equal the full ones bit for bit wherever their
// contract says the result is defined — == on complex128, so a zero may
// differ in sign only — for random sizes and half widths, including
// half = 0 and the fall-through once 2·half+1 ≥ n.
func TestBandMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{5, 7, 12, 16, 30, 33, 48, 96}
	for iter := 0; iter < 60; iter++ {
		w, h := lengths[rng.Intn(len(lengths))], lengths[rng.Intn(len(lengths))]
		half := rng.Intn(max(w, h)/2 + 2)

		// Forward: every row of the band columns.
		full := randomGrid(w, h, int64(iter))
		pruned := cloneComplex(full)
		Forward2D(full)
		Forward2DBand(pruned, half)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if (2*half+1 >= w || bandOf(x, w, half)) && pruned.At(x, y) != full.At(x, y) {
					t.Fatalf("forward %dx%d half=%d: (%d,%d) = %v, full transform %v", w, h, half, x, y, pruned.At(x, y), full.At(x, y))
				}
			}
		}

		// Inverse: every element, for a spectrum confined to the band
		// rows. The pruned input keeps junk in the other rows, which
		// Inverse2DBand must ignore.
		pruned = randomGrid(w, h, int64(1000+iter))
		full = cloneComplex(pruned)
		for y := 0; y < h; y++ {
			if 2*half+1 < h && !bandOf(y, h, half) {
				clear(full.Data[y*w : (y+1)*w])
			}
		}
		Inverse2D(full)
		Inverse2DBand(pruned, half)
		for i := range full.Data {
			if pruned.Data[i] != full.Data[i] {
				t.Fatalf("inverse %dx%d half=%d: element %d = %v, full transform %v", w, h, half, i, pruned.Data[i], full.Data[i])
			}
		}
	}
}

// A row pass by the 1-D transforms and then ColumnPass over some columns
// gives those columns == to the 2-D band transforms' and leaves the other
// columns alone: the forward over the band's two column spans (litho's
// loadMask), the inverse over any span of a band-row spectrum (the
// gradient's last inverse), including an empty span, a single column and
// spans that cut a column block, on 5-smooth and Bluestein lengths.
func TestColumnPassMatchesBandTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{33, 64, 96, 97, 128, 192} {
		for _, half := range []int{0, 3, n / 9, n / 4} {
			src := randomGrid(n, n, int64(n*100+half))

			want := cloneComplex(src)
			Forward2DBand(want, half)
			got := cloneComplex(src)
			for y := 0; y < n; y++ {
				Forward(got.Data[y*n : (y+1)*n])
			}
			ColumnPass(got, false, -1, 0, half+1)
			ColumnPass(got, false, -1, n-half, n)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					if bandOf(x, n, half) && got.At(x, y) != want.At(x, y) {
						t.Fatalf("forward n=%d half=%d: (%d,%d) = %v, Forward2DBand %v", n, half, x, y, got.At(x, y), want.At(x, y))
					}
				}
			}

			want = cloneComplex(src)
			Inverse2DBand(want, half)
			x0 := rng.Intn(n)
			for _, span := range [][2]int{{0, n}, {0, 0}, {x0, x0 + 1}, {x0, x0 + rng.Intn(n-x0+1)}, {n / 3, n - 5}} {
				got := cloneComplex(src)
				for y := 0; y < n; y++ {
					if bandOf(y, n, half) {
						Inverse(got.Data[y*n : (y+1)*n])
					}
				}
				rowPassed := cloneComplex(got)
				ColumnPass(got, true, half, span[0], span[1])
				for i := range got.Data {
					x := i % n
					w := want.Data[i]
					if x < span[0] || x >= span[1] {
						w = rowPassed.Data[i]
					}
					if got.Data[i] != w {
						t.Fatalf("inverse n=%d half=%d span %v: element %d = %v, want %v", n, half, span, i, got.Data[i], w)
					}
				}
			}
		}
	}
}

// cloneComplex returns a deep copy of g.
func cloneComplex(g *grid.Complex) *grid.Complex {
	c := grid.NewComplex(g.W, g.H)
	copy(c.Data, g.Data)
	return c
}
