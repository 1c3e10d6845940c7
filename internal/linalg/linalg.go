// Package linalg provides the one dense linear-algebra kernel the optics
// package needs: the eigendecomposition of a complex Hermitian matrix, by
// Householder reduction to a real symmetric tridiagonal matrix followed by
// implicit-shift QL — about 4n³ flops for the Gram matrices of the
// partially-coherent source (n ≤ 120), where the cyclic Jacobi solver this
// replaced (kept in the tests as the oracle) spent ~10 sweeps of 3·(2n)³
// on the real embedding.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// HermEig computes the eigendecomposition of an n×n complex Hermitian
// matrix given in row-major order. It returns eigenvalues in descending
// order and orthonormal eigenvectors as columns of an n×n complex matrix
// (row-major, vecs[row*n+col]). The input is not modified; it is taken to
// be Hermitian and symmetrized, so rounding asymmetries are harmless.
//
// Within an exactly degenerate eigenvalue the returned vectors are some
// orthonormal basis of the eigenspace; which one is the algorithm's
// choice, not a property of the matrix.
func HermEig(h []complex128, n int) ([]float64, []complex128) {
	if len(h) != n*n {
		panic(fmt.Sprintf("linalg: HermEig matrix length %d does not match n=%d", len(h), n))
	}
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = complex(real(h[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			v := (h[i*n+j] + cmplx.Conj(h[j*n+i])) / 2
			a[i*n+j], a[j*n+i] = v, cmplx.Conj(v)
		}
	}
	v := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	d, e := tridiagonalize(a, v, n)
	implicitQL(d, e, v, n)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
	vals := make([]float64, n)
	vecs := make([]complex128, n*n)
	for col, idx := range order {
		vals[col] = d[idx]
		for row := 0; row < n; row++ {
			vecs[row*n+col] = v[row*n+idx]
		}
	}
	return vals, vecs
}

// tridiagonalize reduces the Hermitian matrix a (overwritten) to the real
// symmetric tridiagonal matrix T = Qᴴ·a·Q with diagonal d and sub-diagonal
// e (e[i] couples i and i+1; e[n-1] = 0), and multiplies q — the identity
// on entry — by Q from the right. Q is a product of Householder
// reflections, one per column, times a diagonal of unit phases that turns
// the complex sub-diagonal into its modulus.
func tridiagonalize(a, q []complex128, n int) (d, e []float64) {
	u := make([]complex128, n) // Householder vector, unit length
	p := make([]complex128, n)
	for k := 0; k+2 < n; k++ {
		// Reflect column k below the diagonal onto its first entry.
		norm := 0.0
		for i := k + 1; i < n; i++ {
			u[i] = a[i*n+k]
			norm += real(u[i])*real(u[i]) + imag(u[i])*imag(u[i])
		}
		x0 := cmplx.Abs(u[k+1])
		if tail := norm - x0*x0; tail <= 0 || norm == 0 {
			continue // nothing below the sub-diagonal
		}
		norm = math.Sqrt(norm)
		phase := complex(1, 0)
		if x0 > 0 {
			phase = u[k+1] / complex(x0, 0)
		}
		u[k+1] += phase * complex(norm, 0) // no cancellation: same phase
		inv := complex(1/math.Sqrt(2*norm*(norm+x0)), 0)
		for i := k + 1; i < n; i++ {
			u[i] *= inv
		}
		// H = I − 2uuᴴ: H·a·H = a − 2u·wᴴ − 2w·uᴴ with p = a·u, w = p − (uᴴp)·u.
		var kk complex128
		for i := k; i < n; i++ {
			var s complex128
			for j, row := k+1, a[i*n:i*n+n]; j < n; j++ {
				s += row[j] * u[j]
			}
			p[i] = s
			if i > k {
				kk += cmplx.Conj(u[i]) * s
			}
		}
		for i := k + 1; i < n; i++ {
			p[i] -= kk * u[i]
		}
		for j := k + 1; j < n; j++ { // row and column k: u[k] = 0
			a[k*n+j] -= 2 * p[k] * cmplx.Conj(u[j])
			a[j*n+k] = cmplx.Conj(a[k*n+j])
		}
		for i := k + 1; i < n; i++ {
			for j, row := k+1, a[i*n:i*n+n]; j < n; j++ {
				row[j] -= 2 * (u[i]*cmplx.Conj(p[j]) + p[i]*cmplx.Conj(u[j]))
			}
		}
		for i := 0; i < n; i++ { // q ← q·H
			var s complex128
			for j, row := k+1, q[i*n:i*n+n]; j < n; j++ {
				s += row[j] * u[j]
			}
			for j, row := k+1, q[i*n:i*n+n]; j < n; j++ {
				row[j] -= 2 * s * cmplx.Conj(u[j])
			}
		}
	}
	d, e = make([]float64, n), make([]float64, n)
	phase := complex(1, 0) // running product of the sub-diagonal's phases
	for k := 0; k < n; k++ {
		d[k] = real(a[k*n+k])
		if phase != 1 {
			for i := 0; i < n; i++ {
				q[i*n+k] *= phase
			}
		}
		if k+1 < n {
			sub := a[(k+1)*n+k]
			if e[k] = cmplx.Abs(sub); e[k] > 0 {
				phase *= sub / complex(e[k], 0)
			}
		}
	}
	return d, e
}

// implicitQL diagonalizes the symmetric tridiagonal matrix (d, e) in place
// by QL iterations with implicit Wilkinson-style shifts (EISPACK tql2),
// applying every plane rotation to the columns of z. On return d holds the
// eigenvalues, unordered, and z's columns the matching eigenvectors.
func implicitQL(d, e []float64, z []complex128, n int) {
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l && math.Abs(e[l]) > eps*tst1; iter++ {
			if iter == 64 {
				panic("linalg: HermEig did not converge")
			}
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1, h := d[l+1], g-d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			s, s2 := 0.0, 0.0
			el1 := e[l+1]
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g, h = c*e[i], c*p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s, c = e[i]/r, p/r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				for k := 0; k < n; k++ {
					zi, zi1 := z[k*n+i], z[k*n+i+1]
					z[k*n+i+1] = complex(s*real(zi)+c*real(zi1), s*imag(zi)+c*imag(zi1))
					z[k*n+i] = complex(c*real(zi)-s*real(zi1), c*imag(zi)-s*imag(zi1))
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l], d[l] = s*p, c*p
		}
		d[l] += f
		e[l] = 0
	}
}
