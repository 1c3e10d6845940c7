package optics

import (
	"fmt"
	"math"
	"testing"

	"cfaopc/internal/linalg"
)

// computeKernelsRef is ComputeKernels as it was before B was held in
// compressed rows: B dense, nf×ns, built from a pupil table that spans
// every shift, and every row of it scanned for nonzeros in the Gram loop
// and the kernel products. It is the oracle: ComputeKernels must return
// the same weights and coefficients to the last bit.
func computeKernelsRef(cfg Config, defocus bool) (*KernelSet, error) {
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

// The configurations the oracle runs: tiles from 200 to 3072 nm (integer
// and not), with and without the defocus term, a thinned source, one
// kernel and more kernels asked for than there are source points, and
// annuli too thin to hold a bin. Each runs both sets. Short mode keeps the
// tiles up to 1024 nm.
func refConfigs(short bool) []Config {
	var cs []Config
	add := func(c Config) {
		if !short || c.TileNM <= 1024 {
			cs = append(cs, c)
		}
	}
	for _, tile := range []float64{200, 256, 300.5, 333.3, 384, 450, 512, 640.25, 700.5, 777.7, 900, 1024, 1234.5, 1300, 1536, 1800.8, 2048, 2222.2, 2560, 2800, 3072} {
		for _, z := range []float64{0, 25} {
			c := Default()
			c.TileNM, c.DefocusNM = tile, z
			add(c)
		}
	}
	for _, tile := range []float64{384, 777.7, 1024, 2048, 3072} {
		c := Default()
		c.TileNM, c.MaxSourcePoints = tile, 17
		add(c)
		c.NumKernels = 40 // above the 17 points thinning leaves
		add(c)
	}
	for _, tile := range []float64{256, 512, 1024, 1536} {
		c := Default()
		c.TileNM, c.NumKernels = tile, 500
		add(c)
	}
	for _, tile := range []float64{1024, 2048} {
		c := Default()
		c.TileNM, c.NumKernels = tile, 1
		add(c)
	}
	for _, z := range []float64{0, 25} {
		c := Default()
		c.TileNM, c.SigmaIn, c.SigmaOut, c.DefocusNM = 300, 0.5, 0.52, z
		add(c)
		c.TileNM, c.SigmaIn, c.SigmaOut = 250, 0.3, 0.33
		add(c)
	}
	return cs
}

func TestComputeKernelsMatchesRef(t *testing.T) {
	cs := refConfigs(testing.Short())
	degenerate := false
	for _, c := range cs {
		rIn, rOut := c.SigmaIn*c.pupilBins(), c.SigmaOut*c.pupilBins()
		for _, p := range c.sourcePoints() {
			if r := math.Hypot(float64(p[0]), float64(p[1])); r < rIn || r > rOut {
				degenerate = true
			}
		}
		for _, defocus := range []bool{false, true} {
			want, werr := computeKernelsRef(c, defocus)
			got, err := ComputeKernels(c, defocus)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("%+v defocus %v: error %v, reference %v", c, defocus, err, werr)
			}
			if err != nil {
				continue
			}
			if got.Cfg != want.Cfg || got.Defocus != want.Defocus || len(got.Kernels) != len(want.Kernels) {
				t.Fatalf("%+v defocus %v: %d kernels, reference %d", c, defocus, len(got.Kernels), len(want.Kernels))
			}
			for k, w := range want.Kernels {
				g := got.Kernels[k]
				if g.Half != w.Half || len(g.Coef) != len(w.Coef) || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
					t.Fatalf("%+v defocus %v kernel %d: weight %v half %d, reference %v half %d", c, defocus, k, g.Weight, g.Half, w.Weight, w.Half)
				}
				for i, v := range w.Coef {
					if math.Float64bits(real(g.Coef[i])) != math.Float64bits(real(v)) || math.Float64bits(imag(g.Coef[i])) != math.Float64bits(imag(v)) {
						t.Fatalf("%+v defocus %v kernel %d coef %d: %v, reference %v", c, defocus, k, i, g.Coef[i], v)
					}
				}
			}
		}
	}
	if !degenerate {
		t.Fatal("no configuration exercised the degenerate-annulus fallback")
	}
	t.Logf("%d configurations, both sets of each, bit for bit", len(cs))
}
