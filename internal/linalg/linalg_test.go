package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSymmetric(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigDiagonal(t *testing.T) {
	m := NewDense(3, 3)
	m.Set(0, 0, 1)
	m.Set(1, 1, 5)
	m.Set(2, 2, 3)
	vals, vecs := SymEig(m)
	want := []float64{5, 3, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// First eigenvector should be ±e1 (the λ=5 axis).
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-10 {
		t.Fatalf("top eigenvector = column %v", []float64{vecs.At(0, 0), vecs.At(1, 0), vecs.At(2, 0)})
	}
}

func TestSymEig2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewDense(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	vals, _ := SymEig(m)
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
}

func eigResidual(a *Dense, vals []float64, vecs *Dense) float64 {
	n := a.Rows
	worst := 0.0
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			av := 0.0
			for j := 0; j < n; j++ {
				av += a.At(i, j) * vecs.At(j, k)
			}
			r := math.Abs(av - vals[k]*vecs.At(i, k))
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

func TestSymEigRandomResidual(t *testing.T) {
	for _, n := range []int{2, 5, 10, 25} {
		a := randSymmetric(n, int64(n))
		vals, vecs := SymEig(a)
		if r := eigResidual(a, vals, vecs); r > 1e-9 {
			t.Errorf("n=%d: residual %g", n, r)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Errorf("n=%d: eigenvalues not sorted: %v", n, vals)
			}
		}
		// Columns orthonormal.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dot := 0.0
				for r := 0; r < n; r++ {
					dot += vecs.At(r, i) * vecs.At(r, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Errorf("n=%d: vecs not orthonormal at (%d,%d): %v", n, i, j, dot)
				}
			}
		}
	}
}

// Property: trace equals sum of eigenvalues.
func TestSymEigTrace(t *testing.T) {
	f := func(seed int64) bool {
		a := randSymmetric(8, seed)
		vals, _ := SymEig(a)
		tr, sum := 0.0, 0.0
		for i := 0; i < 8; i++ {
			tr += a.At(i, i)
			sum += vals[i]
		}
		return math.Abs(tr-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-square matrix")
		}
	}()
	SymEig(NewDense(2, 3))
}

func randHermitian(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		h[i*n+i] = complex(rng.Float64()*2-1, 0)
		for j := i + 1; j < n; j++ {
			v := complex(rng.Float64()*2-1, rng.Float64()*2-1)
			h[i*n+j] = v
			h[j*n+i] = cmplx.Conj(v)
		}
	}
	return h
}

func hermResidual(h []complex128, n int, vals []float64, vecs []complex128) float64 {
	worst := 0.0
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av complex128
			for j := 0; j < n; j++ {
				av += h[i*n+j] * vecs[j*n+k]
			}
			if r := cmplx.Abs(av - complex(vals[k], 0)*vecs[i*n+k]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func TestHermEigResidualAndOrthogonality(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		h := randHermitian(n, int64(n)+100)
		vals, vecs := HermEig(h, n)
		if r := hermResidual(h, n, vals, vecs); r > 1e-8 {
			t.Errorf("n=%d: residual %g", n, r)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var dot complex128
				for r := 0; r < n; r++ {
					dot += cmplx.Conj(vecs[r*n+i]) * vecs[r*n+j]
				}
				want := complex(0, 0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(dot-want) > 1e-8 {
					t.Errorf("n=%d: eigenvectors not orthonormal at (%d,%d): %v", n, i, j, dot)
				}
			}
		}
	}
}

func TestHermEigDegenerate(t *testing.T) {
	// Identity has a fully degenerate spectrum; the extraction must still
	// return n orthonormal eigenvectors with eigenvalue 1.
	n := 5
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		h[i*n+i] = 1
	}
	vals, vecs := HermEig(h, n)
	for i, v := range vals {
		if math.Abs(v-1) > 1e-10 {
			t.Fatalf("vals[%d] = %v, want 1", i, v)
		}
	}
	if r := hermResidual(h, n, vals, vecs); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestHermEigRankOne(t *testing.T) {
	// h = u·u† has one eigenvalue ‖u‖² and the rest zero.
	n := 4
	u := []complex128{1 + 1i, 2, 0, -1i}
	normSq := 0.0
	h := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		normSq += real(u[i])*real(u[i]) + imag(u[i])*imag(u[i])
		for j := 0; j < n; j++ {
			h[i*n+j] = u[i] * cmplx.Conj(u[j])
		}
	}
	vals, _ := HermEig(h, n)
	if math.Abs(vals[0]-normSq) > 1e-9 {
		t.Fatalf("top eigenvalue %v, want %v", vals[0], normSq)
	}
	for _, v := range vals[1:] {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("trailing eigenvalue %v, want 0", v)
		}
	}
}

// Property: Hermitian trace equals eigenvalue sum.
func TestHermEigTrace(t *testing.T) {
	f := func(seed int64) bool {
		n := 6
		h := randHermitian(n, seed)
		vals, _ := HermEig(h, n)
		tr, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += real(h[i*n+i])
			sum += vals[i]
		}
		return math.Abs(tr-sum) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// hermNorm is the Frobenius norm, the ‖H‖ the solver's error bounds scale
// with.
func hermNorm(h []complex128) float64 {
	s := 0.0
	for _, v := range h {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// checkAgainstJacobi holds HermEig to the Jacobi oracle's eigenvalues and
// to the defining properties of an eigendecomposition. Eigenvectors are
// not compared: inside a degenerate eigenspace the two solvers return
// different, equally valid bases.
func checkAgainstJacobi(t *testing.T, name string, h []complex128, n int) {
	t.Helper()
	norm := math.Max(hermNorm(h), 1e-300)
	vals, vecs := HermEig(h, n)
	want, _ := hermEigJacobi(h, n)
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10*norm {
			t.Errorf("%s: eigenvalue %d = %.17g, Jacobi oracle %.17g", name, i, vals[i], want[i])
		}
		if i > 0 && vals[i] > vals[i-1] {
			t.Errorf("%s: eigenvalues not descending at %d", name, i)
		}
	}
	if r := hermResidual(h, n, vals, vecs); r > 1e-9*norm {
		t.Errorf("%s: residual ‖Hv−λv‖ = %g, ‖H‖ = %g", name, r, norm)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var dot complex128
			for r := 0; r < n; r++ {
				dot += cmplx.Conj(vecs[r*n+i]) * vecs[r*n+j]
			}
			if i == j {
				dot--
			}
			if cmplx.Abs(dot) > 1e-10 {
				t.Fatalf("%s: VᴴV − I = %v at (%d,%d)", name, dot, i, j)
			}
		}
	}
}

func TestHermEigMatchesJacobiOracle(t *testing.T) {
	sizes, upTo := []int{71, 120}, 40 // 71 and 120: the source Gram matrices of a 1536 nm window and the largest allowed
	if testing.Short() {
		sizes, upTo = nil, 16 // the Jacobi oracle is slow under the race detector
	}
	for n := 1; n <= upTo; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		checkAgainstJacobi(t, fmt.Sprintf("random/%d", n), randHermitian(n, int64(n)+7), n)
	}
	for _, n := range []int{2, 3, 9, 24} {
		// Real symmetric: every phase is ±1.
		sym := randSymmetric(n, int64(n))
		h := make([]complex128, n*n)
		for i, v := range sym.Data {
			h[i] = complex(v, 0)
		}
		checkAgainstJacobi(t, fmt.Sprintf("symmetric/%d", n), h, n)

		// Diagonal, with repeats and a zero: nothing to reduce or iterate.
		diag := make([]complex128, n*n)
		for i := 0; i < n; i++ {
			diag[i*n+i] = complex(float64(i/2)-1, 0)
		}
		checkAgainstJacobi(t, fmt.Sprintf("diagonal/%d", n), diag, n)

		// Rank one: one eigenvalue ‖u‖², the rest exactly degenerate at 0.
		rng := rand.New(rand.NewSource(int64(n)))
		u := make([]complex128, n)
		for i := range u {
			u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		one := make([]complex128, n*n)
		for i := range u {
			for j := range u {
				one[i*n+j] = u[i] * cmplx.Conj(u[j])
			}
		}
		checkAgainstJacobi(t, fmt.Sprintf("rankone/%d", n), one, n)

		// Exactly degenerate and not diagonal: a reflection I − 2uuᴴ/‖u‖²
		// shifted and scaled has eigenvalue 3 (n−1 times) and −1 (once).
		var uu float64
		for _, v := range u {
			uu += real(v)*real(v) + imag(v)*imag(v)
		}
		refl := make([]complex128, n*n)
		for i := range u {
			for j := range u {
				refl[i*n+j] = -4 * u[i] * cmplx.Conj(u[j]) / complex(uu, 0)
			}
			refl[i*n+i] += 3
		}
		checkAgainstJacobi(t, fmt.Sprintf("degenerate/%d", n), refl, n)
	}
}

func TestHermEigPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a matrix that is not n×n")
		}
	}()
	HermEig(make([]complex128, 5), 2)
}

var sinkVals []float64

func BenchmarkHermEig(b *testing.B) {
	for _, n := range []int{71, 120} {
		h := randHermitian(n, int64(n))
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVals, _ = HermEig(h, n)
			}
		})
	}
}
