package core

import (
	"testing"

	"cfaopc/internal/fracture"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestLossHistoryLength(t *testing.T) {
	sim, target := circleOptSetup(t)
	cfg := testCfg()
	cfg.Iterations = 7
	res := (&CircleOpt{Cfg: cfg, InitIterations: 4}).Optimize(sim, target)
	if len(res.LossHistory) != 7 {
		t.Fatalf("loss history %d entries, want 7", len(res.LossHistory))
	}
}

func TestRuleConfigClampedToOptimizerBounds(t *testing.T) {
	sim, target := circleOptSetup(t)
	cfg := testCfg() // RMin 1.5 px, RMax 9.5 px at 8 nm/px
	rule := fracture.DefaultCircleRuleConfig(sim.DX)
	rule.RMin = 0.5 // below optimizer bound
	rule.RMax = 50  // above optimizer bound
	cfg.Iterations = 5
	res := (&CircleOpt{Cfg: cfg, InitIterations: 4, RuleCfg: rule}).Optimize(sim, target)
	for _, s := range res.Shots {
		if s.R < cfg.RMin-1e-9 || s.R > cfg.RMax+1e-9 {
			t.Fatalf("seed escaping optimizer radius bounds: %+v", s)
		}
	}
}

func TestActiveShotsThresholdBoundary(t *testing.T) {
	cfg := testCfg()
	p := &Params{
		X: []float64{5, 10},
		Y: []float64{5, 10},
		R: []float64{3, 3},
		Q: []float64{cfg.QThreshold, cfg.QThreshold + 1e-9},
	}
	shots := p.ActiveShots(cfg, 32, 32)
	// Strictly-greater semantics: q == threshold is dropped.
	if len(shots) != 1 {
		t.Fatalf("%d shots at threshold boundary, want 1", len(shots))
	}
}

func TestRenderMarginCoversTransitionBand(t *testing.T) {
	cfg := testCfg()
	cfg.Alpha = 2 // wide transition
	cfg.Margin = 0
	p := &Params{X: []float64{16}, Y: []float64{16}, R: []float64{4}, Q: []float64{1}}
	d0 := Render(p, cfg, 32, 32, true)
	cfg.Margin = 6
	d6 := Render(p, cfg, 32, 32, true)
	// A larger margin must capture more of the sigmoid tail.
	if gridkit.Sum(d6.M) <= gridkit.Sum(d0.M) {
		t.Fatalf("margin did not extend the rendered window: %v vs %v", gridkit.Sum(d6.M), gridkit.Sum(d0.M))
	}
}

func TestBackwardZeroGradientIsZero(t *testing.T) {
	cfg := testCfg()
	p := &Params{X: []float64{16}, Y: []float64{16}, R: []float64{4}, Q: []float64{1}}
	d := Render(p, cfg, 32, 32, true)
	g := Backward(p, cfg, d, grid.NewReal(32, 32))
	if g.X[0] != 0 || g.Y[0] != 0 || g.R[0] != 0 || g.Q[0] != 0 {
		t.Fatal("zero upstream gradient produced nonzero parameter gradients")
	}
}

func TestConfigValidatePanicsOnBadBounds(t *testing.T) {
	bad := testCfg()
	bad.RMax = bad.RMin - 1
	defer func() {
		if recover() == nil {
			t.Error("expected panic for RMax < RMin")
		}
	}()
	Render(&Params{}, bad, 8, 8, true)
}

func TestOptimizeFromShotsWarmRestart(t *testing.T) {
	sim, target := circleOptSetup(t)
	cfg := testCfg()
	cfg.Iterations = 10
	e := &CircleOpt{Cfg: cfg, InitIterations: 5}
	first := e.Optimize(sim, target)
	if len(first.Shots) == 0 {
		t.Fatal("no shots in first run")
	}
	// Warm restart from the first run's shots must work and not regress
	// the loss (the seeds are already optimized).
	second := e.OptimizeFromShots(sim, target, first.Shots)
	if len(second.Shots) == 0 {
		t.Fatal("warm restart lost all shots")
	}
	f1 := first.LossHistory[len(first.LossHistory)-1]
	f2 := second.LossHistory[len(second.LossHistory)-1]
	if f2 > 1.5*f1 {
		t.Fatalf("warm restart regressed loss: %v → %v", f1, f2)
	}
}

func TestOptimizeFromShotsEmptySeeds(t *testing.T) {
	sim, _ := circleOptSetup(t)
	cfg := testCfg()
	cfg.Iterations = 3
	res := (&CircleOpt{Cfg: cfg}).OptimizeFromShots(sim, grid.NewReal(64, 64), nil)
	if res.Mask == nil || gridkit.Sum(res.Mask) != 0 {
		t.Fatal("empty seeds should produce an empty mask")
	}
}
