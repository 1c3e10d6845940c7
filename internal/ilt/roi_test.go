package ilt

import (
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestROIMaskGeometry(t *testing.T) {
	target := grid.NewReal(32, 32)
	target.Set(16, 16, 1)
	roi := roiMask(target, 5)
	// Inside the radius: gate open.
	if roi.At(16, 16) != 1 || roi.At(20, 16) != 1 {
		t.Fatal("ROI closed near the target")
	}
	// Outside: gate shut.
	if roi.At(26, 16) != 0 || roi.At(0, 0) != 0 {
		t.Fatal("ROI open far from the target")
	}
}

func TestMosaicMaskConfinedToROI(t *testing.T) {
	sim, target := testSetup(t)
	cfg := quickCfg()
	cfg.ROIMarginNM = 80 // 10 px at 8 nm/px
	mask := (&Mosaic{Cfg: cfg}).Optimize(sim, target)
	d := geom.DistanceTransform(target)
	for i, v := range mask.Data {
		if v > 0.5 && d.Data[i]*sim.DX > 80+1 {
			t.Fatalf("mask pixel %v nm outside the ROI", d.Data[i]*sim.DX)
		}
	}
}

func TestMosaicROIDisabled(t *testing.T) {
	// Negative margin disables gating; the engine must still run and can
	// in principle place mask anywhere.
	sim, target := testSetup(t)
	cfg := quickCfg()
	cfg.ROIMarginNM = -1
	cfg.Iterations = 5
	mask := (&Mosaic{Cfg: cfg}).Optimize(sim, target)
	if gridkit.Sum(mask) == 0 {
		t.Fatal("empty mask with ROI disabled")
	}
}

func TestROIDefaultApplied(t *testing.T) {
	// Zero margin means the 120 nm default, not "no ROI".
	sim, target := testSetup(t)
	cfg := quickCfg()
	cfg.ROIMarginNM = 0
	mask := (&Mosaic{Cfg: cfg}).Optimize(sim, target)
	d := geom.DistanceTransform(target)
	for i, v := range mask.Data {
		if v > 0.5 && d.Data[i]*sim.DX > 120+1 {
			t.Fatalf("mask pixel %v nm outside the default ROI", d.Data[i]*sim.DX)
		}
	}
}

// TestMosaicLBFGSOptimizer is the exhibit that keeps opt/lbfgs.go: at
// equal iterations on the same tile, the quasi-Newton Mosaic prints no
// worse than the Adam one (EXPERIMENTS.md has the four-case table: 5-20×
// lower L2 at 2-2.4× the wall).
func TestMosaicLBFGSOptimizer(t *testing.T) {
	sim, target := testSetup(t)
	cfg := quickCfg()
	cfg.Iterations = 10
	adam := printL2(sim, (&Mosaic{Cfg: cfg}).Optimize(sim, target), target)
	cfg.Optimizer = "lbfgs"
	mask := (&Mosaic{Cfg: cfg}).Optimize(sim, target)
	if gridkit.Sum(mask) == 0 {
		t.Fatal("L-BFGS Mosaic produced an empty mask")
	}
	if got := printL2(sim, mask, target); got > adam {
		t.Fatalf("L-BFGS print L2 %v px² is worse than Adam's %v at equal iterations", got, adam)
	}
}
