package linalg

import (
	"fmt"
	"math"
	"sort"
)

// The cyclic Jacobi solver HermEig used before the tridiagonal-QL one,
// kept verbatim as the oracle the new solver is tested against: Jacobi
// is slow (~10 sweeps of 3·(2n)³ flops on the real embedding) but
// unconditionally stable and shares no code with Householder + QL.

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SymEig computes the eigendecomposition of a real symmetric matrix using
// cyclic Jacobi rotations. It returns eigenvalues sorted in descending
// order and the matrix whose columns are the corresponding orthonormal
// eigenvectors. The input is not modified. Symmetry is assumed, not
// checked; only the upper triangle is consulted through the symmetrized
// working copy.
func SymEig(a *Dense) ([]float64, *Dense) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: SymEig needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	w := a.Clone()
	// Symmetrize to guard against tiny asymmetries from accumulation.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.5 * (w.At(i, j) + w.At(j, i))
			w.Set(i, j, s)
			w.Set(j, i, s)
		}
	}
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-26*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e18 {
					t = 1 / (2 * theta)
				} else {
					t = 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
					if theta < 0 {
						t = -t
					}
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				for k := 0; k < n; k++ {
					akp := w.At(k, p)
					akq := w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := w.At(p, k)
					aqk := w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })

	sortedVals := make([]float64, n)
	vecs := NewDense(n, n)
	for col, idx := range order {
		sortedVals[col] = vals[idx]
		for row := 0; row < n; row++ {
			vecs.Set(row, col, v.At(row, idx))
		}
	}
	return sortedVals, vecs
}

// hermEigJacobi computes the eigendecomposition of an n×n complex Hermitian
// matrix given in row-major order. It returns eigenvalues in descending
// order and orthonormal eigenvectors as columns of an n×n complex matrix
// (row-major, vecs[row*n+col]).
//
// It uses the standard real embedding S = [[Re(H), -Im(H)], [Im(H),
// Re(H)]], whose spectrum is that of H with every eigenvalue doubled; the
// duplicates are collapsed by taking every other sorted eigenpair.
func hermEigJacobi(h []complex128, n int) ([]float64, []complex128) {
	if len(h) != n*n {
		panic(fmt.Sprintf("linalg: hermEigJacobi matrix length %d does not match n=%d", len(h), n))
	}
	s := NewDense(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			re, im := real(h[i*n+j]), imag(h[i*n+j])
			s.Set(i, j, re)
			s.Set(i+n, j+n, re)
			s.Set(i, j+n, -im)
			s.Set(i+n, j, im)
		}
	}
	vals, vecs := SymEig(s)

	// Each complex eigenvector v of H appears in the embedding as the real
	// 2D span of [Re v; Im v] and [Re(iv); Im(iv)], so its eigenvalue shows
	// up twice (degenerate eigenvalues of H even more often). Walk the
	// sorted columns, convert each to a complex candidate, and keep it only
	// if it is complex-linearly independent of the vectors already accepted
	// (Gram–Schmidt residual test). This stays correct for degenerate
	// spectra where naive every-other-column picking can return dependent
	// vectors.
	outVals := make([]float64, 0, n)
	accepted := make([][]complex128, 0, n)
	for col := 0; col < 2*n && len(accepted) < n; col++ {
		cand := make([]complex128, n)
		for row := 0; row < n; row++ {
			cand[row] = complex(vecs.At(row, col), vecs.At(row+n, col))
		}
		for _, u := range accepted {
			var proj complex128
			for i := range u {
				proj += complex(real(u[i]), -imag(u[i])) * cand[i]
			}
			for i := range cand {
				cand[i] -= proj * u[i]
			}
		}
		norm := 0.0
		for _, c := range cand {
			norm += real(c)*real(c) + imag(c)*imag(c)
		}
		if norm < 0.25 { // dependent on an already-accepted vector
			continue
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for i := range cand {
			cand[i] *= inv
		}
		accepted = append(accepted, cand)
		outVals = append(outVals, vals[col])
	}
	if len(accepted) != n {
		panic("linalg: hermEigJacobi failed to extract a full eigenbasis")
	}
	outVecs := make([]complex128, n*n)
	for k, v := range accepted {
		for row := 0; row < n; row++ {
			outVecs[row*n+k] = v[row]
		}
	}
	return outVals, outVecs
}
