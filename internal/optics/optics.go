// Package optics constructs the partially-coherent imaging kernels the
// lithography simulator consumes. It replaces the pre-baked optical kernel
// files shipped with the ICCAD-2013 contest kit by computing them from
// first principles: a circular pupil with optional defocus aberration, an
// annular illumination source, the Hopkins transmission cross coefficient
// (TCC) assembled on the discrete frequency support of the tile, and a
// sum-of-coherent-systems (SOCS) decomposition obtained from the Gram
// matrix of the source-shifted pupils.
//
// All spatial quantities are in nanometers and all frequencies are handled
// as integer bins of the tile's discrete Fourier grid (bin = f · TileNM),
// which makes kernels independent of the pixel resolution chosen for
// simulation: the same physical tile sampled at 1 nm/px or 8 nm/px shares
// one kernel set.
package optics

import (
	"fmt"
	"math"
	"sync"

	"cfaopc/internal/linalg"
)

// Config describes one imaging condition.
type Config struct {
	TileNM     float64 // physical tile edge length in nm (square tiles)
	Wavelength float64 // exposure wavelength in nm (193 for ArF immersion)
	NA         float64 // numerical aperture
	SigmaIn    float64 // annular source inner radius, fraction of NA
	SigmaOut   float64 // annular source outer radius, fraction of NA
	DefocusNM  float64 // defocus distance used by the defocus kernel set
	NumKernels int     // SOCS kernels to keep (K)

	// MaxSourcePoints bounds the number of discrete source samples used to
	// assemble the TCC; larger annuli are thinned by striding. Zero means
	// the package default.
	MaxSourcePoints int
}

// Default returns the imaging condition used throughout the reproduction:
// ArF immersion (λ=193 nm, NA=1.35) with 0.5–0.8 annular illumination on a
// 2048 nm tile, 24 SOCS kernels, 25 nm defocus corner.
func Default() Config {
	return Config{
		TileNM:     2048,
		Wavelength: 193,
		NA:         1.35,
		SigmaIn:    0.5,
		SigmaOut:   0.8,
		DefocusNM:  25,
		NumKernels: 24,
	}
}

// Validate checks the configuration for physical and numeric sanity.
func (c Config) Validate() error {
	switch {
	case c.TileNM <= 0:
		return fmt.Errorf("optics: TileNM must be positive, got %g", c.TileNM)
	case c.Wavelength <= 0:
		return fmt.Errorf("optics: Wavelength must be positive, got %g", c.Wavelength)
	case c.NA <= 0:
		return fmt.Errorf("optics: NA must be positive, got %g", c.NA)
	case c.SigmaIn < 0 || c.SigmaOut <= c.SigmaIn || c.SigmaOut > 1:
		return fmt.Errorf("optics: need 0 ≤ SigmaIn < SigmaOut ≤ 1, got [%g, %g]", c.SigmaIn, c.SigmaOut)
	case c.NumKernels <= 0:
		return fmt.Errorf("optics: NumKernels must be positive, got %d", c.NumKernels)
	}
	return nil
}

// pupilBins returns the pupil cutoff NA/λ expressed in frequency bins.
func (c Config) pupilBins() float64 { return c.NA / c.Wavelength * c.TileNM }

// Kernel is one coherent system of the SOCS decomposition, stored as its
// frequency-domain coefficients on the compact support window
// |binX|,|binY| ≤ Half. Values outside the window are zero.
type Kernel struct {
	Weight float64      // TCC eigenvalue λ_k
	Half   int          // support half-width in bins
	Coef   []complex128 // (2·Half+1)² row-major, index [(by+Half)·(2Half+1) + bx+Half]
}

// At returns the kernel spectrum at signed frequency bins (bx, by).
func (k *Kernel) At(bx, by int) complex128 {
	if bx < -k.Half || bx > k.Half || by < -k.Half || by > k.Half {
		return 0
	}
	s := 2*k.Half + 1
	return k.Coef[(by+k.Half)*s+bx+k.Half]
}

// KernelSet is a complete SOCS decomposition for one focus condition.
type KernelSet struct {
	Cfg     Config
	Defocus bool // true if the defocus aberration was applied
	Kernels []Kernel
}

// pupil evaluates the (possibly defocused) pupil function at signed
// frequency bins (bx, by): unit transmission inside NA/λ, zero outside,
// with the exact high-NA defocus phase 2π·z·(√(1/λ² − f²) − 1/λ).
func (c Config) pupil(bx, by float64, defocus bool) complex128 {
	r := math.Hypot(bx, by)
	if r > c.pupilBins() {
		return 0
	}
	if !defocus || c.DefocusNM == 0 {
		return 1
	}
	f := r / c.TileNM // cycles per nm
	invL := 1 / c.Wavelength
	arg := invL*invL - f*f
	if arg < 0 {
		arg = 0
	}
	phase := 2 * math.Pi * c.DefocusNM * (math.Sqrt(arg) - invL)
	return complex(math.Cos(phase), math.Sin(phase))
}

// sourcePoints samples the annular source on the frequency-bin grid,
// thinning with a stride when the annulus holds more than the configured
// maximum. Each returned point carries equal weight; the caller normalizes.
func (c Config) sourcePoints() [][2]int {
	rOut := c.SigmaOut * c.pupilBins()
	rIn := c.SigmaIn * c.pupilBins()
	lim := int(math.Ceil(rOut))
	var pts [][2]int
	for by := -lim; by <= lim; by++ {
		for bx := -lim; bx <= lim; bx++ {
			r := math.Hypot(float64(bx), float64(by))
			if r >= rIn && r <= rOut {
				pts = append(pts, [2]int{bx, by})
			}
		}
	}
	if len(pts) == 0 {
		// Degenerate annulus thinner than one bin (tiny test tiles): fall
		// back to the nearest ring of bins, or the DC point.
		mid := (rIn + rOut) / 2
		best := math.Inf(1)
		for by := -lim - 1; by <= lim+1; by++ {
			for bx := -lim - 1; bx <= lim+1; bx++ {
				d := math.Abs(math.Hypot(float64(bx), float64(by)) - mid)
				if d < best {
					best = d
					pts = pts[:0]
					pts = append(pts, [2]int{bx, by})
				} else if d == best {
					pts = append(pts, [2]int{bx, by})
				}
			}
		}
	}
	max := c.MaxSourcePoints
	if max <= 0 {
		max = 120
	}
	if len(pts) > max {
		stride := (len(pts) + max - 1) / max
		thinned := pts[:0]
		for i := 0; i < len(pts); i += stride {
			thinned = append(thinned, pts[i])
		}
		pts = thinned
	}
	return pts
}

var (
	kernelCacheMu sync.Mutex
	kernelCache   = map[kernelKey]*kernelEntry{}
)

type kernelKey struct {
	cfg     Config
	defocus bool
}

// kernelEntry is one memoized decomposition. The entry is created under
// kernelCacheMu; once makes every caller of one key share one compute.
type kernelEntry struct {
	once sync.Once
	set  *KernelSet
	err  error
}

// computeKernels is ComputeKernels, replaceable by the single-flight test.
var computeKernels = ComputeKernels

// CachedKernels returns the SOCS kernel set for cfg, memoizing by the full
// configuration value. The decomposition costs tens of milliseconds at
// production scale — as much as optimizing a small tile — and
// multi-resolution engines, tile workers and concurrent jobs request the
// same physical condition repeatedly, so callers should prefer this over
// ComputeKernels. Concurrent first callers of one key wait for a single
// computation and share its result (or its error).
func CachedKernels(cfg Config, defocus bool) (*KernelSet, error) {
	key := kernelKey{cfg: cfg, defocus: defocus}
	kernelCacheMu.Lock()
	e := kernelCache[key]
	if e == nil {
		e = &kernelEntry{}
		kernelCache[key] = e
	}
	kernelCacheMu.Unlock()
	e.once.Do(func() { e.set, e.err = computeKernels(cfg, defocus) })
	return e.set, e.err
}

// ComputeKernels builds the SOCS kernel set for the configuration. With
// defocus true, the pupil carries the DefocusNM aberration (the "defocus"
// process-corner kernels); otherwise it is the nominal in-focus set.
//
// The decomposition solves the Hermitian eigenproblem of the source Gram
// matrix G = B†B, where column s of B is the pupil shifted by source point
// s restricted to the tile's frequency support; the left singular vectors
// B·w/√λ are exactly the TCC eigenfunctions. Kernels are globally rescaled
// so that a fully clear mask images to unit intensity under the kept K
// kernels, keeping the resist threshold meaningful for any K.
func ComputeKernels(cfg Config, defocus bool) (*KernelSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := cfg.sourcePoints()
	ns := len(src)

	// Frequency support: the pupil shifted by any source point lives within
	// (1+σout)·NA/λ of DC.
	half := int(math.Ceil((1 + cfg.SigmaOut) * cfg.pupilBins()))
	side := 2*half + 1
	nf := side * side

	// B[f, s] = P(f + f0_s) / √ns. The pupil is evaluated once per
	// distinct bin f + f0_s, not once per (f, s) pair.
	reach := half
	for _, p := range src {
		reach = max(reach, half+max(p[0], -p[0]), half+max(p[1], -p[1]))
	}
	span := 2*reach + 1
	pupil := make([]complex128, span*span)
	for i := range pupil {
		pupil[i] = cfg.pupil(float64(i%span-reach), float64(i/span-reach), defocus)
	}
	b := make([]complex128, nf*ns)
	wsrc := complex(1/math.Sqrt(float64(ns)), 0)
	for fi := 0; fi < nf; fi++ {
		fy := fi/side - half
		fx := fi%side - half
		for s, p := range src {
			b[fi*ns+s] = pupil[(fy+p[1]+reach)*span+fx+p[0]+reach] * wsrc
		}
	}

	// Gram matrix G = B†B (ns×ns Hermitian), accumulated one row of B at a
	// time so both operands are contiguous. Zero entries add nothing and
	// are skipped: whole rows of them outside every shifted pupil (the
	// corners of the square support), and about half of every other row.
	g := make([]complex128, ns*ns)
	for fi := 0; fi < nf; fi++ {
		row := b[fi*ns : (fi+1)*ns]
		for i, bi := range row {
			if bi == 0 {
				continue
			}
			ci := complex(real(bi), -imag(bi))
			gi := g[i*ns : (i+1)*ns]
			for j := i; j < ns; j++ {
				gi[j] += ci * row[j]
			}
		}
	}
	for i := 0; i < ns; i++ {
		for j := i + 1; j < ns; j++ {
			g[j*ns+i] = complex(real(g[i*ns+j]), -imag(g[i*ns+j]))
		}
	}

	vals, vecs := linalg.HermEig(g, ns)
	k := cfg.NumKernels
	if k > ns {
		k = ns
	}

	// Kernel k is the left singular vector B·v_k/√λ_k. All kept kernels
	// are formed together, one row of B at a time, so the inner loop runs
	// along a row of the eigenvector matrix (its first k entries).
	set := &KernelSet{Cfg: cfg, Defocus: defocus}
	for ki := 0; ki < k && vals[ki] >= 1e-12; ki++ { // numerically zero modes carry no energy
		set.Kernels = append(set.Kernels, Kernel{Weight: vals[ki], Half: half, Coef: make([]complex128, nf)})
	}
	k = len(set.Kernels)
	acc := make([]complex128, k)
	for fi := 0; fi < nf; fi++ {
		clear(acc)
		for sj, bv := range b[fi*ns : (fi+1)*ns] {
			if bv == 0 {
				continue
			}
			for ki, v := range vecs[sj*ns : sj*ns+k] {
				acc[ki] += bv * v
			}
		}
		for ki, s := range acc {
			set.Kernels[ki].Coef[fi] = s * complex(1/math.Sqrt(vals[ki]), 0)
		}
	}
	if len(set.Kernels) == 0 {
		return nil, fmt.Errorf("optics: decomposition produced no kernels")
	}

	// Clear-field normalization: scale weights so Σ λ_k |H_k(0)|² = 1.
	open := 0.0
	for i := range set.Kernels {
		h0 := set.Kernels[i].At(0, 0)
		open += set.Kernels[i].Weight * (real(h0)*real(h0) + imag(h0)*imag(h0))
	}
	if open <= 0 {
		return nil, fmt.Errorf("optics: clear-field intensity is zero; cannot normalize")
	}
	for i := range set.Kernels {
		set.Kernels[i].Weight /= open
	}
	return set, nil
}
