package ilt

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/gridkit"
)

// testSetup builds a 512 nm tile on a 64×64 grid (8 nm/px) with a
// printable two-bar target.
func testSetup(t testing.TB) (*litho.Simulator, *grid.Real) {
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
		for x := 22; x < 30; x++ { // 64 nm bar
			target.Set(x, y, 1)
		}
		for x := 38; x < 46; x++ {
			target.Set(x, y, 1)
		}
	}
	return sim, target
}

// printL2 is the hard-resist L2 in px² for a candidate mask.
func printL2(sim *litho.Simulator, mask, target *grid.Real) float64 {
	r := sim.Simulate(mask)
	n := 0.0
	for i := range target.Data {
		a := r.ZNom.Data[i] > 0.5
		b := target.Data[i] > 0.5
		if a != b {
			n++
		}
	}
	return n
}

func quickCfg() Config {
	c := DefaultConfig()
	c.Iterations = 20
	return c
}

func TestEnginesImproveOverIdentityMask(t *testing.T) {
	sim, target := testSetup(t)
	base := printL2(sim, target, target) // print the target as-is
	engines := []Engine{
		&Mosaic{Cfg: quickCfg()},
		&CycleILT{Cfg: quickCfg()},
		&LevelSet{Cfg: quickCfg()},
		&MultiLevel{Cfg: quickCfg(), CoarseIterations: 10},
	}
	for _, e := range engines {
		mask := e.Optimize(sim, target)
		// Output must be strictly binary.
		for i, v := range mask.Data {
			if v != 0 && v != 1 {
				t.Fatalf("%s: non-binary mask value %v at %d", e.Name(), v, i)
			}
		}
		got := printL2(sim, mask, target)
		if got > base {
			t.Errorf("%s: optimized print L2 %v worse than identity-mask %v", e.Name(), got, base)
		}
		if gridkit.Sum(mask) == 0 {
			t.Errorf("%s: produced an empty mask", e.Name())
		}
	}
}

func TestLevelSetProducesNoRemoteSRAFs(t *testing.T) {
	sim, target := testSetup(t)
	e := &LevelSet{Cfg: quickCfg()}
	mask := e.Optimize(sim, target)
	// Every mask pixel must be within 6 px (48 nm) of the target: fronts
	// move, features do not nucleate.
	d := geom.DistanceTransform(target)
	for i, v := range mask.Data {
		if v > 0.5 && d.Data[i] > 6 {
			t.Fatalf("level-set mask has a feature %v px from the target", d.Data[i])
		}
	}
}

func TestCycleILTIgnoresPVB(t *testing.T) {
	// The NeuralILT stand-in must behave identically regardless of WPVB.
	sim, target := testSetup(t)
	a := (&CycleILT{Cfg: quickCfg()}).Optimize(sim, target)
	cfg := quickCfg()
	cfg.WPVB = 99
	b := (&CycleILT{Cfg: cfg}).Optimize(sim, target)
	if gridkit.SqDiff(a, b) != 0 {
		t.Fatal("CycleILT result depends on WPVB; the L2-only override is broken")
	}
}

func TestCleanMaskRemovesSpecks(t *testing.T) {
	m := grid.NewReal(16, 16)
	m.Set(0, 0, 1) // 1 px speck
	for y := 5; y < 10; y++ {
		for x := 5; x < 10; x++ {
			m.Set(x, y, 1)
		}
	}
	c := CleanMask(m, 4)
	if c.At(0, 0) != 0 {
		t.Fatal("speck survived cleanup")
	}
	if c.At(7, 7) != 1 {
		t.Fatal("solid block removed by cleanup")
	}
	// minPx ≤ 0 keeps everything.
	c2 := CleanMask(m, 0)
	if c2.At(0, 0) != 1 {
		t.Fatal("cleanup with minPx=0 removed pixels")
	}
}

func TestConfigValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero iterations")
		}
	}()
	e := &Mosaic{Cfg: Config{}}
	sim, target := testSetup(t)
	e.Optimize(sim, target)
}

func TestMosaicDeterministic(t *testing.T) {
	sim, target := testSetup(t)
	a := (&Mosaic{Cfg: quickCfg()}).Optimize(sim, target)
	b := (&Mosaic{Cfg: quickCfg()}).Optimize(sim, target)
	if gridkit.SqDiff(a, b) != 0 {
		t.Fatal("Mosaic not deterministic")
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]Engine{
		"MOSAIC":    &Mosaic{},
		"DevelSet":  &LevelSet{},
		"NeuralILT": &CycleILT{},
		"MultiILT":  &MultiLevel{},
	}
	for want, e := range names {
		if got := e.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestMultiLevelOddGridFallsBack(t *testing.T) {
	// A grid not divisible by 2 must still optimize (single level).
	cfg := optics.Default()
	cfg.TileNM = 512
	cfg.NumKernels = 6
	sim, err := litho.New(cfg, 63)
	if err != nil {
		t.Fatal(err)
	}
	sim.KOpt = 3
	target := grid.NewReal(63, 63)
	for y := 20; y < 44; y++ {
		for x := 28; x < 36; x++ {
			target.Set(x, y, 1)
		}
	}
	c := quickCfg()
	c.Iterations = 5
	mask := (&MultiLevel{Cfg: c}).Optimize(sim, target)
	if gridkit.Sum(mask) == 0 {
		t.Fatal("empty mask from odd-grid MultiLevel")
	}
}

func TestMaskFromLatentRange(t *testing.T) {
	p := grid.NewReal(3, 1)
	p.Data[0], p.Data[1], p.Data[2] = -100, 0, 100
	m := maskFromLatent(p, 4)
	if m.Data[0] > 1e-6 || math.Abs(m.Data[1]-0.5) > 1e-12 || m.Data[2] < 1-1e-6 {
		t.Fatalf("maskFromLatent = %v", m.Data)
	}
}

// cleanMaskRef is CleanMask as it was: one full scan for the area of each
// component and a second one to clear it, O(pixels × components).
func cleanMaskRef(m *grid.Real, minPx int) *grid.Real {
	out := m.Binarize(0.5)
	if minPx <= 0 {
		return out
	}
	labels := geom.Components(out, true)
	for id := 1; id <= labels.N; id++ {
		area := 0
		for _, v := range labels.Label {
			if int(v) == id {
				area++
			}
		}
		if area < minPx {
			for i, v := range labels.Label {
				if int(v) == id {
					out.Data[i] = 0
				}
			}
		}
	}
	return out
}

// The one-pass CleanMask equals the per-component one on the suite
// targets sprinkled with speckles of one to nine pixels, the debris a
// rough Mosaic mask carries.
func TestCleanMaskMatchesRefOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, l := range layout.GenerateSuite() {
		m := l.Rasterize(256)
		for k := 0; k < 60; k++ {
			x0, y0 := rng.Intn(m.W-3), rng.Intn(m.H-3)
			for n := rng.Intn(9); n >= 0; n-- {
				m.Set(x0+rng.Intn(3), y0+rng.Intn(3), 0.4+rng.Float64())
			}
		}
		for _, minPx := range []int{0, 1, 2, 4, 7, 1 << 20} {
			got, want := CleanMask(m, minPx), cleanMaskRef(m, minPx)
			if gridkit.SqDiff(got, want) != 0 {
				t.Fatalf("%s minPx %d: CleanMask differs from the reference", l.Name, minPx)
			}
		}
		if kept, all := gridkit.Sum(CleanMask(m, 4)), gridkit.Sum(m.Binarize(0.5)); kept == all || kept == 0 {
			t.Fatalf("%s: cleanup kept %v of %v pixels; the speckles test nothing", l.Name, kept, all)
		}
	}
}

// Name makes Mosaic an Engine here, so the tests run it beside the
// engines the product selects by name.
func (e *Mosaic) Name() string { return "MOSAIC" }
