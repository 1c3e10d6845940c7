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
// one kernel set. The focus and defocus pair costs about 0.15 ms at 384 nm,
// 5 ms at 1024 nm, 18 ms at 2048 nm and 72 ms at 4096 nm, built side by
// side on two vCPUs.
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

// SupportHalf is the half-width in bins of the support every kernel of c
// lives on: the pupil shifted by any source point stays within
// (1+σout)·NA/λ of DC. A grid too narrow for 2·SupportHalf()+1 bins cannot
// hold the kernels.
func (c Config) SupportHalf() int { return int(math.Ceil((1 + c.SigmaOut) * c.pupilBins())) }

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

// maxKernelSets bounds the kernel cache to the most recently used
// conditions (one Config, in focus or defocused): a long-lived daemon
// that sees many window sizes would otherwise keep every size's pair,
// 8.7 MB at 4096 nm. A simulator keeps its sets whether or not the cache
// still does.
const maxKernelSets = 16

var (
	kernelCacheMu sync.Mutex
	kernelCache   = map[kernelKey]*kernelEntry{}
	kernelClock   uint64 // counts lookups; an entry's used is its last
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
	used uint64 // kernelClock at the last lookup, under kernelCacheMu
}

// computeKernels is ComputeKernels, replaceable by the single-flight test.
var computeKernels = ComputeKernels

// CachedKernels returns the SOCS kernel set for cfg, memoizing by the full
// configuration value. The decomposition costs milliseconds to tens of
// milliseconds (the curve is in the package comment) — as much as
// optimizing a small tile — and multi-resolution engines, tile workers and
// concurrent jobs request the same physical condition repeatedly, so
// callers should prefer this over ComputeKernels. Concurrent first callers
// of one key wait for a single computation and share its result (or its
// error). The cache holds the last maxKernelSets conditions used.
func CachedKernels(cfg Config, defocus bool) (*KernelSet, error) {
	key := kernelKey{cfg: cfg, defocus: defocus}
	kernelCacheMu.Lock()
	e := kernelCache[key]
	if e == nil {
		if len(kernelCache) >= maxKernelSets {
			// Callers already waiting on the evicted entry keep it.
			var oldest kernelKey
			least := uint64(math.MaxUint64)
			for k, o := range kernelCache {
				if o.used < least {
					oldest, least = k, o.used
				}
			}
			delete(kernelCache, oldest)
		}
		e = &kernelEntry{}
		kernelCache[key] = e
	}
	kernelClock++
	e.used = kernelClock
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
	half := cfg.SupportHalf()
	side := 2*half + 1
	nf := side * side

	// B[f, s] = P(f + f0_s) / √ns is nonzero only where f + f0_s lies in
	// the pupil disk, under a quarter of B (the disk's area against the
	// support's). B is held in compressed rows, row f being col,
	// val[start[f]:start[f+1]] in ascending s; walk visits the nonzeros
	// source by source. The pupil is evaluated once per bin of its disk.
	wsrc := complex(1/math.Sqrt(float64(ns)), 0)
	type bin struct {
		x, y int
		v    complex128
	}
	var disk []bin
	lim := int(cfg.pupilBins())
	for by := -lim; by <= lim; by++ {
		for bx := -lim; bx <= lim; bx++ {
			if p := cfg.pupil(float64(bx), float64(by), defocus); p != 0 {
				disk = append(disk, bin{bx, by, p * wsrc})
			}
		}
	}
	walk := func(visit func(fi, s int, v complex128)) {
		for s, p := range src {
			for _, q := range disk {
				if fx, fy := q.x-p[0], q.y-p[1]; max(fx, -fx, fy, -fy) <= half {
					visit((fy+half)*side+fx+half, s, q.v)
				}
			}
		}
	}
	start := make([]int, nf+1)
	walk(func(fi, _ int, _ complex128) { start[fi+1]++ })
	for fi := 0; fi < nf; fi++ {
		start[fi+1] += start[fi]
	}
	next := append([]int(nil), start[:nf]...)
	col, val := make([]int32, start[nf]), make([]complex128, start[nf])
	walk(func(fi, s int, v complex128) {
		col[next[fi]], val[next[fi]] = int32(s), v
		next[fi]++
	})

	// Gram matrix G = B†B (ns×ns Hermitian), accumulated one row of B at a
	// time over that row's nonzeros. A product skipped is ±0 added to an
	// accumulator that starts at +0, so it could not change a bit.
	g := make([]complex128, ns*ns)
	for fi := 0; fi < nf; fi++ {
		cs, vs := col[start[fi]:start[fi+1]], val[start[fi]:start[fi+1]]
		for a, bi := range vs {
			ci := complex(real(bi), -imag(bi))
			gi := g[int(cs[a])*ns : (int(cs[a])+1)*ns]
			for b := a; b < len(vs); b++ {
				gi[cs[b]] += ci * vs[b]
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
		for a, bv := range val[start[fi]:start[fi+1]] {
			sj := int(col[start[fi]+a])
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
