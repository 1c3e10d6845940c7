package litho

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/gridkit"
)

// testSim builds a cheap but physical simulator: 256 nm tile on a 32×32
// grid (8 nm/px) keeps kernel supports tiny.
func testSim(t testing.TB, n int) *Simulator { return simAt(t, n, 256) }

// flowSim builds a simulator the way the tiled flow sees one: 8 nm pixels,
// so the kernel band grows with the window (Half ≈ n/9) and the pruned
// transforms have rows and columns to skip.
func flowSim(t testing.TB, n int) *Simulator { return simAt(t, n, 8*float64(n)) }

func simAt(t testing.TB, n int, tileNM float64) *Simulator {
	t.Helper()
	cfg := optics.Default()
	cfg.TileNM = tileNM
	cfg.NumKernels = 6
	s, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// keep copies a LossGrad result out of the simulator's arena, so it can be
// compared with the result of a later call.
func keep(r *DiffResult) *DiffResult {
	c := *r
	c.GradM = gridkit.Clone(r.GradM)
	return &c
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := optics.Default()
	if _, err := New(cfg, 0); err == nil {
		t.Error("expected error for grid size 0")
	}
	// Grid smaller than the kernel support must be rejected.
	if _, err := New(cfg, 8); err == nil {
		t.Error("expected error for grid smaller than kernel support")
	}
	bad := cfg
	bad.NA = -1
	if _, err := New(bad, 64); err == nil {
		t.Error("expected error for invalid optics config")
	}
}

// A grid narrower than the kernel support is refused before either set is
// decomposed: a 4096 nm tile on 64 px needs 105 bins, and building its two
// kernel sets first used to cost about 170 ms and 8.5 MB of cache.
func TestNewRefusesSupportBeforeDecomposing(t *testing.T) {
	cfg := optics.Default()
	cfg.TileNM = 4096
	calls := 0
	_, err := newWith(cfg, 64, func(c optics.Config, defocus bool) (*optics.KernelSet, error) {
		calls++
		return optics.ComputeKernels(c, defocus)
	})
	if err == nil || err.Error() != "litho: grid 64 too small for kernel support 105" || calls != 0 {
		t.Fatalf("err %v after %d decompositions; want the support error after none", err, calls)
	}
}

func TestClearAndDarkField(t *testing.T) {
	s := testSim(t, 32)
	clear := grid.NewReal(32, 32)
	gridkit.Fill(clear, 1)
	i := s.Aerial(clear, s.Focus)
	for idx, v := range i.Data {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("clear field intensity[%d] = %v, want 1", idx, v)
		}
	}
	dark := grid.NewReal(32, 32)
	i = s.Aerial(dark, s.Focus)
	for idx, v := range i.Data {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("dark field intensity[%d] = %v, want 0", idx, v)
		}
	}
}

func TestAerialNonNegativeAndFinite(t *testing.T) {
	s := testSim(t, 32)
	rng := rand.New(rand.NewSource(1))
	m := grid.NewReal(32, 32)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	img := s.Aerial(m, s.Defocus)
	for i, v := range img.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("intensity[%d] = %v", i, v)
		}
	}
}

func TestAerialPanicsOnSizeMismatch(t *testing.T) {
	s := testSim(t, 32)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched mask size")
		}
	}()
	s.Aerial(grid.NewReal(16, 16), s.Focus)
}

func TestSigmoid(t *testing.T) {
	if v := Sigmoid(0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v", v)
	}
	if v := Sigmoid(50); v < 0.999 {
		t.Fatalf("Sigmoid(50) = %v", v)
	}
	if v := Sigmoid(-50); v > 0.001 {
		t.Fatalf("Sigmoid(-50) = %v", v)
	}
	// Symmetry σ(x) + σ(−x) = 1.
	for _, x := range []float64{0.1, 1, 3, 10, 200} {
		if d := Sigmoid(x) + Sigmoid(-x) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v: %v", x, d)
		}
	}
}

func TestResistModels(t *testing.T) {
	i := grid.NewReal(2, 1)
	i.Set(0, 0, Threshold*2)
	i.Set(1, 0, Threshold/2)
	zb := ResistBinary(i, 1.0)
	if zb.At(0, 0) != 1 || zb.At(1, 0) != 0 {
		t.Fatalf("binary resist wrong: %v", zb.Data)
	}
	zs := ResistSigmoid(i, 1.0)
	if zs.At(0, 0) < 0.9 || zs.At(1, 0) > 0.1 {
		t.Fatalf("sigmoid resist wrong: %v", zs.Data)
	}
	// Higher dose can only grow the printed region.
	zhi := ResistBinary(i, 1.3)
	for idx := range zb.Data {
		if zb.Data[idx] == 1 && zhi.Data[idx] == 0 {
			t.Fatal("higher dose shrank printed region")
		}
	}
}

func TestSimulateDoseCornerNesting(t *testing.T) {
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	// A 10×10 square feature.
	for y := 11; y < 21; y++ {
		for x := 11; x < 21; x++ {
			m.Set(x, y, 1)
		}
	}
	r := s.Simulate(m)
	if gridkit.Sum(r.ZNom) == 0 {
		t.Fatal("nominal image printed nothing")
	}
	// Max-dose print must contain the min-dose print (same aerial image).
	for i := range r.ZMax.Data {
		if r.ZMin.Data[i] == 1 && r.ZMax.Data[i] == 0 {
			t.Fatal("min-dose print not contained in max-dose print")
		}
	}
}

// The analytic mask gradient must match central finite differences of the
// loss. This validates the whole adjoint chain: resist sigmoid → aerial
// backward → kernel conjugation — on a power-of-two grid and on the two
// mixed-radix window sizes (96 = 4·4·2·3, 160 = 4·4·2·5), whose band-pruned
// transforms skip most rows and columns and whose per-kernel work runs on
// a smaller simulation grid. On the grids small enough for it, the
// differences are also taken of the direct-space oracle's loss, so the
// gradient is held to the physics and not only to LossGrad's own forward
// pass.
func TestLossGradMatchesFiniteDifference(t *testing.T) {
	sims := append([]*Simulator{flowSim(t, 96), flowSim(t, 160)}, oracleSims(t)...)
	for _, s := range sims {
		n := s.N
		var o *oracle
		if n <= 32 {
			o = newOracle(n, s.Focus, s.Defocus)
		}
		rng := rand.New(rand.NewSource(42))
		mask := grid.NewReal(n, n)
		target := grid.NewReal(n, n)
		for y := 3 * n / 8; y < 5*n/8; y++ {
			for x := 3 * n / 8; x < 5*n/8; x++ {
				target.Set(x, y, 1)
			}
		}
		for i := range mask.Data {
			mask.Data[i] = 0.3 + 0.4*rng.Float64()
		}

		for _, weights := range [][2]float64{{1, 0}, {0, 1}, {1, 1}} {
			wL2, wPVB := weights[0], weights[1]
			res := keep(s.LossGrad(mask, target, wL2, wPVB))
			if gridkit.HasNaN(res.GradM) {
				t.Fatal("gradient contains NaN")
			}
			const eps = 1e-5
			for _, px := range [][2]int{{13 * n / 32, 13 * n / 32}, {n / 2, n / 2}, {5 * n / 32, 5 * n / 32}, {5 * n / 8, 3 * n / 8}} {
				x, y := px[0], px[1]
				analytic := res.GradM.At(x, y)
				// central differences of loss along the pixel (x, y)
				central := func(loss func() float64) float64 {
					orig := mask.At(x, y)
					mask.Set(x, y, orig+eps)
					lp := loss()
					mask.Set(x, y, orig-eps)
					lm := loss()
					mask.Set(x, y, orig)
					return (lp - lm) / (2 * eps)
				}
				numerics := map[string]float64{
					"LossGrad's loss": central(func() float64 { return s.LossGrad(mask, target, wL2, wPVB).Loss }),
				}
				if o != nil {
					numerics["the oracle's loss"] = central(func() float64 { return o.loss(s, mask, target, wL2, wPVB) })
				}
				for of, numeric := range numerics {
					scale := math.Max(math.Abs(numeric), math.Abs(analytic))
					if scale < 1e-8 {
						continue
					}
					if math.Abs(numeric-analytic) > 1e-3*scale+1e-8 {
						t.Errorf("n=%d w=(%g,%g) pixel (%d,%d): analytic %g vs central differences of %s %g",
							n, wL2, wPVB, x, y, analytic, of, numeric)
					}
				}
			}
		}
	}
}

// Aerial and AerialBackward run band-pruned transforms; this reference
// spells out the same sums with the full Forward2D/Inverse2D. Pruning
// skips only work whose result is zero or never read, so with the
// simulation grid pinned to the pixel grid the two must agree exactly, not
// to a tolerance. (TestReducedGridMatchesFullGrid holds the rule-chosen
// grid to this one.)
func TestAerialMatchesFullTransformReference(t *testing.T) {
	for _, n := range []int{96, 160} {
		s := flowSim(t, n)
		s.simGrid = n
		rng := rand.New(rand.NewSource(int64(n)))
		mask := grid.NewReal(n, n)
		dLdI := grid.NewReal(n, n)
		for i := range mask.Data {
			mask.Data[i] = rng.Float64()
			dLdI.Data[i] = rng.NormFloat64()
		}
		set := s.Defocus
		if 2*set.Kernels[0].Half+1 >= n/2 {
			t.Fatalf("n=%d: band %d leaves nothing to prune", n, set.Kernels[0].Half)
		}
		// support calls f with the kernel coefficient and grid index of
		// every support bin.
		support := func(k *optics.Kernel, f func(c complex128, idx int)) {
			side := 2*k.Half + 1
			for by := -k.Half; by <= k.Half; by++ {
				for bx := -k.Half; bx <= k.Half; bx++ {
					f(k.Coef[(by+k.Half)*side+bx+k.Half], (by+n)%n*n+(bx+n)%n)
				}
			}
		}

		maskF := gridkit.FromReal(mask)
		fft.Forward2D(maskF)
		wantI := grid.NewReal(n, n)
		wantFields := make([]*grid.Complex, len(set.Kernels))
		for ki := range set.Kernels {
			k := &set.Kernels[ki]
			field := grid.NewComplex(n, n)
			support(k, func(c complex128, idx int) { field.Data[idx] = c * maskF.Data[idx] })
			fft.Inverse2D(field)
			wantFields[ki] = field
			for i, v := range field.Data {
				wantI.Data[i] += k.Weight * (real(v)*real(v) + imag(v)*imag(v))
			}
		}
		gotI := s.Aerial(mask, set)
		if d := gridkit.SqDiff(gotI, wantI); d != 0 {
			t.Errorf("n=%d: aerial image differs from the full-transform reference (Σd² = %g)", n, d)
		}
		gotG := s.AerialBackward(mask, dLdI, set)
		fields := s.arena.fields[0][:len(set.Kernels)]
		for ki := range fields {
			for i, v := range fields[ki].Data {
				if v != wantFields[ki].Data[i] {
					t.Fatalf("n=%d: field %d differs at %d: %v vs %v", n, ki, i, v, wantFields[ki].Data[i])
				}
			}
		}

		accF := grid.NewComplex(n, n)
		for ki := range set.Kernels {
			k := &set.Kernels[ki]
			tmp := grid.NewComplex(n, n)
			for i := range tmp.Data {
				tmp.Data[i] = complex(dLdI.Data[i], 0) * fields[ki].Data[i]
			}
			fft.Forward2D(tmp)
			support(k, func(c complex128, idx int) {
				accF.Data[idx] += complex(k.Weight, 0) * complex(real(c), -imag(c)) * tmp.Data[idx]
			})
		}
		fft.Inverse2D(accF)
		wantG := gridkit.Scale(gridkit.RealPart(accF), 2)
		if d := gridkit.SqDiff(gotG, wantG); d != 0 {
			t.Errorf("n=%d: mask gradient differs from the full-transform reference (Σd² = %g)", n, d)
		}
	}
}

// AerialBackward's forward pass leaves the field of every kernel it ran
// in the arena — the fields its adjoint reads — and none past the
// truncated count.
func TestAerialFieldsSaved(t *testing.T) {
	m := grid.NewReal(32, 32)
	m.Set(16, 16, 1)
	for _, optimizing := range []bool{false, true} {
		s := testSim(t, 32)
		s.KOpt = 3
		set := s.Focus
		if optimizing {
			set = s.optimizingSet(set)
		}
		s.AerialBackward(m, grid.NewReal(32, 32), set)
		kc := s.kcount(s.Focus, optimizing)
		fields := s.arena.fields[0]
		for i := range s.Focus.Kernels {
			if saved := i < len(fields) && fields[i] != nil; saved != (i < kc) {
				t.Fatalf("optimizing=%v: field %d saved = %v with %d kernels run", optimizing, i, saved, kc)
			}
		}
	}
}

func TestLossGradPerfectMaskHasLowLoss(t *testing.T) {
	s := testSim(t, 32)
	target := grid.NewReal(32, 32)
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			target.Set(x, y, 1)
		}
	}
	// The target itself is a reasonable mask for a large feature; loss
	// should be far below the all-empty mask's loss.
	empty := grid.NewReal(32, 32)
	lTarget := s.LossGrad(target, target, 1, 1).Loss
	lEmpty := s.LossGrad(empty, target, 1, 1).Loss
	if lTarget >= lEmpty {
		t.Fatalf("target-as-mask loss %g not better than empty mask %g", lTarget, lEmpty)
	}
}

func TestKOptTruncation(t *testing.T) {
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	for y := 10; y < 22; y++ {
		for x := 10; x < 22; x++ {
			m.Set(x, y, 1)
		}
	}
	full := s.Aerial(m, s.optimizingSet(s.Focus))
	s.KOpt = 2
	trunc := s.Aerial(m, s.optimizingSet(s.Focus))
	// Truncation must change the image (fewer kernels)…
	if gridkit.SqDiff(full, trunc) == 0 {
		t.Fatal("KOpt truncation had no effect")
	}
	// …but evaluation must ignore KOpt.
	evalImg := s.Aerial(m, s.Focus)
	if gridkit.SqDiff(full, evalImg) != 0 {
		t.Fatal("evaluation path affected by KOpt")
	}
}

// sameGrid asserts got == want element by element.
func sameGrid(t *testing.T, what string, got, want *grid.Real) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// sameResult asserts two LossGrad results are ==: losses and gradient.
func sameResult(t *testing.T, what string, got, want *DiffResult) {
	t.Helper()
	if got.Loss != want.Loss || got.L2 != want.L2 || got.PVB != want.PVB {
		t.Fatalf("%s: loss %v (L2 %v, PVB %v), want %v (%v, %v)", what, got.Loss, got.L2, got.PVB, want.Loss, want.L2, want.PVB)
	}
	sameGrid(t, what+" gradient", got.GradM, want.GradM)
}

// LossGradCols gives LossGrad's loss and, on the columns asked for, its
// gradient, ==; every other column of the gradient is zero. Spans: the
// whole grid, none, one column, the target's columns, a span cutting a
// column block, with and without the defocus corner.
func TestLossGradColsMatchesFull(t *testing.T) {
	for _, w := range benchWindows {
		n := w.n
		for _, wPVB := range []float64{1, 0} {
			s, mask, target := windowSim(t, n, w.tileNM)
			full, _, _ := windowSim(t, n, w.tileNM)
			want := full.LossGrad(mask, target, 1, wPVB)
			for _, span := range [][2]int{{0, n}, {0, 0}, {n / 2, n/2 + 1}, {5 * n / 16, 11 * n / 16}, {17, n - 3}} {
				got := s.LossGradCols(mask, target, 1, wPVB, span[0], span[1])
				what := fmt.Sprintf("%d px, wPVB %g, columns %v", n, wPVB, span)
				if got.Loss != want.Loss || got.L2 != want.L2 || got.PVB != want.PVB {
					t.Fatalf("%s: loss %v, LossGrad's %v", what, got.Loss, want.Loss)
				}
				for i, g := range got.GradM.Data {
					x, ref := i%n, want.GradM.Data[i]
					if x < span[0] || x >= span[1] {
						ref = 0
					}
					if g != ref {
						t.Fatalf("%s: gradient %d = %v, want %v", what, i, g, ref)
					}
				}
			}
		}
	}
	s, mask, target := windowSim(t, 96, 384)
	for _, span := range [][2]int{{-1, 4}, {0, 97}, {9, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("columns %v: no panic", span)
				}
			}()
			s.LossGradCols(mask, target, 1, 1, span[0], span[1])
		}()
	}
}

// A simulator that saw mask A and then gets mask B, which differs from A
// in some rows — one of them only in the sign of a zero — computes what a
// fresh simulator computes from B, bit for bit: the spectrum loadMask
// leaves is Forward2DBand's of the whole mask, and LossGrad, Simulate and
// Aerial all agree with a fresh simulator's, whichever of them ran last
// and after the arena is rebuilt for another simulation grid.
func TestLoadMaskReusesUnchangedRows(t *testing.T) {
	const n = 96
	s, a, target := windowSim(t, n, 384)
	b := gridkit.Clone(a)
	for y := 40; y < 52; y += 3 {
		for x := 10; x < 60; x++ {
			b.Data[y*n+x] = 0.25
		}
	}
	b.Data[5*n+7] = math.Copysign(0, -1)
	fresh := func(simGrid int) *Simulator {
		f, _, _ := windowSim(t, n, 384)
		f.simGrid = simGrid
		return f
	}

	s.LossGrad(a, target, 1, 1)
	sameResult(t, "LossGrad A then B", keep(s.LossGrad(b, target, 1, 1)), fresh(0).LossGrad(b, target, 1, 1))

	ar := s.arenaFor(s.Focus)
	ar.loadMask(a)
	ar.loadMask(b)
	want := grid.NewComplex(n, n)
	for i, v := range b.Data {
		want.Data[i] = complex(ar.down*v, 0)
	}
	fft.Forward2DBand(want, ar.half)
	for by := -ar.half; by <= ar.half; by++ {
		for bx := -ar.half; bx <= ar.half; bx++ {
			i := wrap(by, n)*n + wrap(bx, n)
			if ar.specN.Data[i] != want.Data[i] {
				t.Fatalf("spectrum bin (%d,%d) = %v, Forward2DBand's %v", bx, by, ar.specN.Data[i], want.Data[i])
			}
		}
	}

	s.LossGrad(a, target, 1, 1)
	got, ref := s.Simulate(b), fresh(0).Simulate(b)
	sameGrid(t, "Simulate after LossGrad, nominal", got.INom, ref.INom)
	sameGrid(t, "Simulate after LossGrad, defocus", got.IDef, ref.IDef)
	s.Simulate(a)
	sameGrid(t, "Aerial after Simulate", s.Aerial(b, s.optimizingSet(s.Focus)), fresh(0).Aerial(b, s.optimizingSet(s.Focus)))
	sameResult(t, "LossGrad after Aerial", keep(s.LossGrad(a, target, 1, 1)), fresh(0).LossGrad(a, target, 1, 1))

	s.simGrid = n
	sameResult(t, "LossGrad on a rebuilt arena", keep(s.LossGrad(b, target, 1, 1)), fresh(n).LossGrad(b, target, 1, 1))
	s.simGrid = 0
	sameResult(t, "LossGrad on the arena rebuilt back", keep(s.LossGrad(a, target, 1, 1)), fresh(0).LossGrad(a, target, 1, 1))
}

// AerialBackward propagates a gradient dL/dI through the aerial image of
// mask under set back to the mask: dL/dM = Σ_k λ_k · 2·Re[ IFFT(
// conj(Ĥ_k) ⊙ FFT(dLdI ⊙ c_k) ) ]. Its forward pass saves the coherent
// fields c_k in the arena's corner-0 slots, where LossGrad saves its
// own. The returned gradient is the caller's.
func (s *Simulator) AerialBackward(mask, dLdI *grid.Real, set *optics.KernelSet) *grid.Real {
	a := s.arenaFor(set)
	a.loadMask(mask)
	kc := len(set.Kernels)
	fields := a.saved(0, kc)
	s.forward(a, 0, set, kc, fields)
	for i, g := range dLdI.Data {
		a.packN.Data[i] = complex(g, 0)
	}
	s.backward(a, [2]*optics.KernelSet{set, set}, [2]int{kc, 0}, [2][]*grid.Complex{fields, nil}, 0, s.N)
	return gridkit.Clone(a.gradM)
}

// optimizingSet is set cut to the kernels the optimizer runs: its first
// KOpt, when KOpt truncates.
func (s *Simulator) optimizingSet(set *optics.KernelSet) *optics.KernelSet {
	cut := *set
	cut.Kernels = set.Kernels[:s.kcount(set, true)]
	return &cut
}
