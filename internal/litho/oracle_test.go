package litho

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// oracle is the Hopkins/SOCS model spelled out in direct space, sharing
// nothing with the fast path but the kernel coefficients: each spatial
// kernel is a naive inverse DFT of Kernel.Coef (no fft package), each
// coherent field an explicit O(N⁴) circular convolution h_k ⊛ M, and the
// image I = Σ_k w_k|h_k ⊛ M|². It checks the simulator against the physics
// it claims to compute rather than against its previous self.
type oracle struct {
	n       int
	kernels map[*optics.KernelSet][][]complex128 // spatial h_k, n×n row-major
}

func newOracle(n int, sets ...*optics.KernelSet) *oracle {
	o := &oracle{n: n, kernels: map[*optics.KernelSet][][]complex128{}}
	for _, set := range sets {
		for ki := range set.Kernels {
			k := &set.Kernels[ki]
			h := make([]complex128, n*n)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					var s complex128
					for by := -k.Half; by <= k.Half; by++ {
						for bx := -k.Half; bx <= k.Half; bx++ {
							sin, cos := math.Sincos(2 * math.Pi * float64(bx*x+by*y) / float64(n))
							s += k.At(bx, by) * complex(cos, sin)
						}
					}
					h[y*n+x] = s / complex(float64(n*n), 0)
				}
			}
			o.kernels[set] = append(o.kernels[set], h)
		}
	}
	return o
}

// aerial is Σ_k w_k|h_k ⊛ M|² over the first kc kernels of set.
func (o *oracle) aerial(mask *grid.Real, set *optics.KernelSet, kc int) *grid.Real {
	n := o.n
	img := grid.NewReal(n, n)
	for ki := 0; ki < kc; ki++ {
		h := o.kernels[set][ki]
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var re, im float64
				for v := 0; v < n; v++ {
					hrow := h[(y-v+n)%n*n:][:n]
					mrow := mask.Data[v*n:][:n]
					for u, m := range mrow {
						if m != 0 {
							c := hrow[(x-u+n)%n]
							re += m * real(c)
							im += m * imag(c)
						}
					}
				}
				img.Data[y*n+x] += set.Kernels[ki].Weight * (re*re + im*im)
			}
		}
	}
	return img
}

// loss is Equation (6) on the oracle's images with the sigmoid resist.
func (o *oracle) loss(s *Simulator, mask, target *grid.Real, wL2, wPVB float64) float64 {
	sq := func(img *grid.Real, dose float64) float64 {
		sum := 0.0
		for i, v := range img.Data {
			d := Sigmoid(ResistSteepness*(dose*dose*v-Threshold)) - target.Data[i]
			sum += d * d
		}
		return sum
	}
	l := wL2 * sq(o.aerial(mask, s.Focus, s.kcount(s.Focus, true)), 1)
	if wPVB != 0 {
		def := o.aerial(mask, s.Defocus, s.kcount(s.Defocus, true))
		l += wPVB * (sq(def, DoseMax) + sq(def, DoseMin))
	}
	return l
}

func relDiff(got, want *grid.Real) float64 {
	worst := 0.0
	for i, v := range want.Data {
		worst = math.Max(worst, math.Abs(got.Data[i]-v))
	}
	return worst / math.Max(want.MaxAbs(), 1e-300)
}

// oracleSims are small enough for the O(N⁴) oracle: a 32-px grid whose
// band (half 4) fits a 24-px simulation grid, and a 16-px grid too coarse
// for its band, which simulates on itself.
func oracleSims(t *testing.T) []*Simulator {
	reduced, coarse := testSim(t, 32), simAt(t, 16, 256)
	if a := reduced.arenaFor(reduced.Focus); a.m >= a.n {
		t.Fatalf("32-px oracle grid simulates on %d px: the reduced path is not under test", a.m)
	}
	if a := coarse.arenaFor(coarse.Focus); a.m != a.n {
		t.Fatalf("16-px oracle grid simulates on %d px, want itself", a.m)
	}
	return []*Simulator{reduced, coarse}
}

func TestAerialMatchesDirectSpaceOracle(t *testing.T) {
	for _, s := range oracleSims(t) {
		n := s.N
		o := newOracle(n, s.Focus, s.Defocus)
		rng := rand.New(rand.NewSource(int64(n)))
		mask := grid.NewReal(n, n)
		for i := range mask.Data {
			if rng.Intn(3) > 0 {
				mask.Data[i] = rng.Float64()
			}
		}
		for _, set := range []*optics.KernelSet{s.Focus, s.Defocus} {
			for _, kopt := range []int{0, 2} {
				s.KOpt = kopt
				kc := s.kcount(set, true)
				if d := relDiff(s.Aerial(mask, s.optimizingSet(set)), o.aerial(mask, set, kc)); d > 1e-9 {
					t.Errorf("n=%d defocus=%v kernels=%d: aerial image is %g off the direct-space oracle (relative)", n, set.Defocus, kc, d)
				}
			}
		}
		s.KOpt = 0
		r := s.Simulate(mask)
		if d := relDiff(r.INom, o.aerial(mask, s.Focus, len(s.Focus.Kernels))); d > 1e-9 {
			t.Errorf("n=%d: Simulate's nominal image is %g off the oracle", n, d)
		}
		if d := relDiff(r.IDef, o.aerial(mask, s.Defocus, len(s.Defocus.Kernels))); d > 1e-9 {
			t.Errorf("n=%d: Simulate's defocus image is %g off the oracle", n, d)
		}
	}
}

// The reduced grid is an optimization, not an approximation: at every
// benchmark window the simulator on its rule-chosen grid agrees with the
// same simulator pinned to the pixel grid — the full-grid arithmetic that
// TestAerialMatchesFullTransformReference holds to plain transforms — to
// rounding.
func TestReducedGridMatchesFullGrid(t *testing.T) {
	windows := []struct {
		n      int
		tileNM float64
	}{{96, 384}, {128, 1024}, {192, 1536}, {256, 2048}}
	if testing.Short() {
		windows = windows[:2]
	}
	for _, w := range windows {
		fast, mask, target := windowSim(t, w.n, w.tileNM)
		full, _, _ := windowSim(t, w.n, w.tileNM)
		full.simGrid = w.n
		if m := fast.arenaFor(fast.Focus).m; m >= w.n {
			t.Fatalf("%d px / %g nm simulates on %d px: nothing reduced", w.n, w.tileNM, m)
		}
		rng := rand.New(rand.NewSource(int64(w.n)))
		for i := range mask.Data {
			mask.Data[i] = math.Min(1, math.Max(0, mask.Data[i]+0.3*rng.NormFloat64()))
		}
		for _, set := range []*optics.KernelSet{fast.Focus, fast.Defocus} {
			if d := relDiff(fast.Aerial(mask, set), full.Aerial(mask, set)); d > 1e-12 {
				t.Errorf("%d px: aerial image (defocus=%v) differs by %g relative", w.n, set.Defocus, d)
			}
		}
		for _, weights := range [][2]float64{{1, 0}, {1, 1}} {
			got := fast.LossGrad(mask, target, weights[0], weights[1])
			want := full.LossGrad(mask, target, weights[0], weights[1])
			if d := math.Abs(got.Loss-want.Loss) / want.Loss; d > 1e-12 {
				t.Errorf("%d px w=%v: loss %v vs %v on the full grid (%g relative)", w.n, weights, got.Loss, want.Loss, d)
			}
			if d := relDiff(got.GradM, want.GradM); d > 1e-12 {
				t.Errorf("%d px w=%v: gradient differs by %g relative", w.n, weights, d)
			}
		}
	}
}

// Where a truncation boundary (K or KOpt) falls inside an exactly
// degenerate eigenvalue — unthinned symmetric sources have them, e.g.
// kernels 1 and 2 of a 1024 nm tile — the kept kernel is whichever basis
// vector the eigensolver happened to return, and an image truncated there
// depends on the solver. The physics does not: Σ wₖ|hₖ ⊛ M|² over the
// whole degenerate subspace is the same in every orthonormal basis of it.
func TestDegenerateSubspaceIsBasisIndependent(t *testing.T) {
	cfg := optics.Default()
	cfg.TileNM = 1024
	s, err := New(cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := s.Focus.Kernels[1], s.Focus.Kernels[2]
	if d := math.Abs(k1.Weight-k2.Weight) / k1.Weight; d > 1e-12 {
		t.Fatalf("kernels 1 and 2 of a 1024 nm tile are not degenerate: weights %v, %v", k1.Weight, k2.Weight)
	}
	if d := math.Abs(k2.Weight-s.Focus.Kernels[3].Weight) / k2.Weight; d < 1e-6 {
		t.Fatal("the degenerate subspace is larger than the pair under test")
	}
	// Another orthonormal basis of the same pair: a unitary mix.
	c, sn := complex(math.Cos(0.7), 0), complex(math.Sin(0.7)*math.Cos(1.1), math.Sin(0.7)*math.Sin(1.1))
	r1 := optics.Kernel{Weight: k1.Weight, Half: k1.Half, Coef: make([]complex128, len(k1.Coef))}
	r2 := optics.Kernel{Weight: k2.Weight, Half: k2.Half, Coef: make([]complex128, len(k2.Coef))}
	for i := range k1.Coef {
		r1.Coef[i] = c*k1.Coef[i] + sn*k2.Coef[i]
		r2.Coef[i] = -complex(real(sn), -imag(sn))*k1.Coef[i] + c*k2.Coef[i]
	}
	set := func(ks ...optics.Kernel) *optics.KernelSet { return &optics.KernelSet{Cfg: cfg, Kernels: ks} }

	_, mask, _ := windowSim(t, 128, 1024)
	for i := range mask.Data {
		mask.Data[i] *= float64(i%7) / 6 // no symmetry for the pair to hide behind
	}
	whole, wholeRot := s.Aerial(mask, set(k1, k2)), s.Aerial(mask, set(r1, r2))
	if d := relDiff(wholeRot, whole); d > 1e-12 {
		t.Errorf("the whole degenerate pair images differently in a rotated basis: %g relative", d)
	}
	split, splitRot := s.Aerial(mask, set(k1)), s.Aerial(mask, set(r1))
	if d := relDiff(splitRot, split); d < 1e-3 {
		t.Errorf("half the pair images the same in both bases (%g relative): the test does not exercise a split", d)
	}
}
