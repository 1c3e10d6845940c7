package core

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

func testCfg() Config {
	c := DefaultConfig(8) // 8 nm/px
	c.Iterations = 30
	return c
}

func TestRenderBasics(t *testing.T) {
	cfg := testCfg()
	p := &Params{X: []float64{16}, Y: []float64{16}, R: []float64{5}, Q: []float64{1}}
	d := Render(p, cfg, 32, 32, true)
	if v := d.M.At(16, 16); v < 0.99 {
		t.Fatalf("center activation %v, want ≈1", v)
	}
	if v := d.M.At(16, 16+4); v < 0.9 {
		t.Fatalf("inside activation %v, want ≈1", v)
	}
	if v := d.M.At(0, 0); v != 0 {
		t.Fatalf("far-away activation %v, want 0", v)
	}
	if d.argmax[16*32+16] != 1 {
		t.Fatal("argmax not recorded")
	}
	// Window transition: just outside the radius the activation is low.
	if v := d.M.At(16, 16+7); v > 0.1 {
		t.Fatalf("outside activation %v, want ≈0", v)
	}
}

func TestRenderMaxComposition(t *testing.T) {
	cfg := testCfg()
	p := &Params{
		X: []float64{10, 14},
		Y: []float64{16, 16},
		R: []float64{4, 4},
		Q: []float64{0.6, 1.0},
	}
	d := Render(p, cfg, 32, 32, true)
	// In the overlap, the larger q wins.
	if am := d.argmax[16*32+13]; am != 2 {
		t.Fatalf("argmax in overlap = %d, want 2", am)
	}
	// Deep inside circle 1 only, activation ≈ q1.
	if v := d.M.At(7, 16); math.Abs(v-0.6) > 0.05 {
		t.Fatalf("activation %v, want ≈0.6", v)
	}
}

func TestRenderQuantizes(t *testing.T) {
	cfg := testCfg()
	p := &Params{X: []float64{10.4}, Y: []float64{9.7}, R: []float64{3.2}, Q: []float64{1}}
	d := Render(p, cfg, 32, 32, true)
	if d.qx[0] != 10 || d.qy[0] != 10 || d.qr[0] != 3 {
		t.Fatalf("quantized to (%v,%v,%v)", d.qx[0], d.qy[0], d.qr[0])
	}
	// Radius clipped into [RMin, RMax] even after rounding.
	p.R[0] = 100
	d = Render(p, cfg, 32, 32, true)
	if d.qr[0] > cfg.RMax || d.qr[0] != math.Round(d.qr[0]) {
		t.Fatalf("radius not clipped to integer within bounds: %v (RMax %v)", d.qr[0], cfg.RMax)
	}
}

func TestNegativeQNeverPaints(t *testing.T) {
	cfg := testCfg()
	p := &Params{X: []float64{16}, Y: []float64{16}, R: []float64{5}, Q: []float64{-0.5}}
	d := Render(p, cfg, 32, 32, true)
	for i, v := range d.M.Data {
		if v != 0 {
			t.Fatalf("negative-q circle painted %v at %d", v, i)
		}
	}
}

// Finite-difference check of the circle-window gradients (Eq. 12–14) with
// quantization disabled so the loss is smooth in the parameters.
func TestBackwardMatchesFiniteDifference(t *testing.T) {
	cfg := testCfg()
	cfg.Alpha = 2 // gentler window → larger support, better conditioning
	w, h := 40, 40
	p := &Params{
		X: []float64{14.3, 24.9},
		Y: []float64{20.1, 21.7},
		R: []float64{4.6, 5.2},
		Q: []float64{0.9, 0.7},
	}
	// Random linear loss L = Σ w ⊙ M̄.
	rng := rand.New(rand.NewSource(8))
	wts := grid.NewReal(w, h)
	for i := range wts.Data {
		wts.Data[i] = rng.Float64()*2 - 1
	}
	loss := func(p *Params) float64 {
		d := Render(p, cfg, w, h, false)
		return d.M.Dot(wts)
	}
	d := Render(p, cfg, w, h, false)
	g := Backward(p, cfg, d, wts)

	check := func(name string, arr []float64, ga []float64) {
		const eps = 1e-6
		for i := range arr {
			orig := arr[i]
			arr[i] = orig + eps
			lp := loss(p)
			arr[i] = orig - eps
			lm := loss(p)
			arr[i] = orig
			num := (lp - lm) / (2 * eps)
			scale := math.Max(math.Abs(num), math.Abs(ga[i]))
			if scale < 1e-10 {
				continue
			}
			if math.Abs(num-ga[i]) > 2e-3*scale+1e-8 {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", name, i, ga[i], num)
			}
		}
	}
	check("x", p.X, g.X)
	check("y", p.Y, g.Y)
	check("r", p.R, g.R)
	check("q", p.Q, g.Q)
}

func TestBackwardSTEGating(t *testing.T) {
	cfg := testCfg()
	// Radius raw value far above RMax: its gradient must be gated to 0.
	p := &Params{X: []float64{16}, Y: []float64{16}, R: []float64{cfg.RMax + 5}, Q: []float64{1}}
	d := Render(p, cfg, 32, 32, true)
	dLdM := grid.NewReal(32, 32)
	dLdM.Fill(1)
	g := Backward(p, cfg, d, dLdM)
	if g.R[0] != 0 {
		t.Fatalf("out-of-bounds radius still received gradient %v", g.R[0])
	}
	// q gradient flows regardless (no STE on q).
	if g.Q[0] == 0 {
		t.Fatal("q received no gradient")
	}
}

func TestActiveShots(t *testing.T) {
	cfg := testCfg()
	p := &Params{
		X: []float64{10.2, 20.6},
		Y: []float64{10.4, 20.1},
		R: []float64{3.4, 4.6},
		Q: []float64{0.9, 0.2},
	}
	shots := p.ActiveShots(cfg, 32, 32)
	if len(shots) != 1 {
		t.Fatalf("%d active shots, want 1", len(shots))
	}
	s := shots[0]
	if s.X != 10 || s.Y != 10 || s.R != 3 {
		t.Fatalf("shot = %+v", s)
	}
}

func circleOptSetup(t testing.TB) (*litho.Simulator, *grid.Real) {
	t.Helper()
	cfg := optics.Default()
	cfg.TileNM = 512
	cfg.NumKernels = 8
	sim, err := litho.New(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	sim.KOpt = 4
	target := grid.NewReal(64, 64)
	for y := 14; y < 50; y++ {
		for x := 24; x < 34; x++ { // 80 nm bar at 8 nm/px
			target.Set(x, y, 1)
		}
	}
	return sim, target
}

func TestCircleOptEndToEnd(t *testing.T) {
	sim, target := circleOptSetup(t)
	e := &CircleOpt{Cfg: testCfg(), InitIterations: 8}
	res := e.Optimize(sim, target)
	if len(res.Shots) == 0 {
		t.Fatal("no shots produced")
	}
	for _, s := range res.Shots {
		if s.R < e.Cfg.RMin-1e-9 || s.R > e.Cfg.RMax+1e-9 {
			t.Fatalf("shot radius %v outside bounds", s.R)
		}
		if s.X != math.Round(s.X) || s.Y != math.Round(s.Y) || s.R != math.Round(s.R) {
			t.Fatalf("shot not quantized: %+v", s)
		}
	}
	for i, v := range res.Mask.Data {
		if v != 0 && v != 1 {
			t.Fatalf("mask not binary at %d: %v", i, v)
		}
	}
	// The print must beat an empty mask by a wide margin.
	r := sim.Simulate(res.Mask)
	diff := 0
	for i := range target.Data {
		if (r.ZNom.Data[i] > 0.5) != (target.Data[i] > 0.5) {
			diff++
		}
	}
	if diff > int(target.Sum())/2 {
		t.Fatalf("printed image misses most of the target: %d differing px", diff)
	}
	// Loss should drop over the run.
	first, last := res.LossHistory[0], res.LossHistory[len(res.LossHistory)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestCircleOptSparsityReducesShots(t *testing.T) {
	sim, target := circleOptSetup(t)
	noReg := testCfg()
	noReg.Gamma = 0
	withReg := testCfg()
	withReg.Gamma = 3
	a := (&CircleOpt{Cfg: noReg, InitIterations: 8}).Optimize(sim, target)
	b := (&CircleOpt{Cfg: withReg, InitIterations: 8}).Optimize(sim, target)
	// The Lasso term shrinks the total activation mass; on tiny cases the
	// discrete shot count can tie, so assert on Σ|q| directly.
	sumAbs := func(qs []float64) float64 {
		s := 0.0
		for _, q := range qs {
			s += math.Abs(q)
		}
		return s
	}
	if sumAbs(b.Params.Q) >= sumAbs(a.Params.Q) {
		t.Fatalf("sparsity regularizer did not shrink Σ|q|: %v vs %v",
			sumAbs(b.Params.Q), sumAbs(a.Params.Q))
	}
}

func TestCircleOptEmptyTarget(t *testing.T) {
	sim, _ := circleOptSetup(t)
	empty := grid.NewReal(64, 64)
	res := (&CircleOpt{Cfg: testCfg(), InitIterations: 3}).Optimize(sim, empty)
	if res.Mask == nil {
		t.Fatal("nil mask for empty target")
	}
	if got := int(res.Mask.Sum()); got > 50 {
		t.Fatalf("empty target grew a mask of %d px", got)
	}
}

func TestCircleOptDeterministic(t *testing.T) {
	sim, target := circleOptSetup(t)
	cfgA := testCfg()
	cfgA.Iterations = 10
	a := (&CircleOpt{Cfg: cfgA, InitIterations: 5}).Optimize(sim, target)
	b := (&CircleOpt{Cfg: cfgA, InitIterations: 5}).Optimize(sim, target)
	if len(a.Shots) != len(b.Shots) {
		t.Fatal("CircleOpt not deterministic")
	}
	for i := range a.Shots {
		if a.Shots[i] != b.Shots[i] {
			t.Fatal("shot lists differ between runs")
		}
	}
}
