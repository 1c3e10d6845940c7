package ilt

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
)

// mosaicRef is Mosaic.Optimize as it was before its parameters became the
// ROI's pixels: every pixel is a parameter, the whole mask is repainted
// and the gradient formed over the whole grid each step, and the gate
// multiplies the gradient.
func mosaicRef(e *Mosaic, sim *litho.Simulator, target *grid.Real) *grid.Real {
	e.Cfg.validate()
	p := latentInit(target, e.Cfg.BackgroundBias)
	roi := e.Cfg.roiFor(sim, target)

	// One mask and one gradient serve every evaluation: Adam consumes the
	// gradient before the next call, and LBFGS.Step copies the one it
	// keeps (and drops its line-search trials') before it evaluates again.
	m := grid.NewReal(p.W, p.H)
	g := make([]float64, len(p.Data))
	lossGrad := func(latent []float64) (float64, []float64) {
		maskIntoRef(m, latent, e.Cfg.MaskSteepness)
		res := sim.LossGrad(m, target, e.Cfg.WL2, e.Cfg.WPVB)
		for i := range g {
			mi := m.Data[i]
			g[i] = res.GradM.Data[i] * e.Cfg.MaskSteepness * mi * (1 - mi)
			if roi != nil {
				g[i] *= roi.Data[i]
			}
		}
		return res.Loss, g
	}

	if e.Cfg.Optimizer == "lbfgs" {
		l := opt.NewLBFGS()
		l.InitialStep = e.Cfg.LearningRate
		for it := 0; it < e.Cfg.Iterations; it++ {
			loss := l.Step(p.Data, lossGrad)
			opt.Beat(sim.Ctx, it, loss)
		}
	} else {
		adam := opt.NewAdam(len(p.Data), e.Cfg.LearningRate)
		for it := 0; it < e.Cfg.Iterations; it++ {
			loss, g := lossGrad(p.Data)
			adam.Step(p.Data, g)
			opt.Beat(sim.Ctx, it, loss)
		}
	}
	final := maskFromLatent(p, e.Cfg.MaskSteepness)
	if roi != nil {
		final.Mul(roi)
	}
	return CleanMask(final, e.Cfg.MinFeaturePx)
}

// maskIntoRef is maskFromLatent into a mask the caller owns.
func maskIntoRef(m *grid.Real, latent []float64, steepness float64) {
	for i, v := range latent {
		m.Data[i] = litho.Sigmoid(steepness * v)
	}
}

// multiLevelRef is MultiLevel.Optimize as it was: two copies of the
// whole-grid Adam loop, a fresh mask per step.
func multiLevelRef(e *MultiLevel, sim *litho.Simulator, target *grid.Real) *grid.Real {
	e.Cfg.validate()
	coarseIters := e.CoarseIterations
	if coarseIters <= 0 {
		coarseIters = e.Cfg.Iterations
	}
	p := latentInit(target, e.Cfg.BackgroundBias)

	// Coarse stage at half resolution when the grid allows it.
	if sim.N%2 == 0 {
		if coarseSim, err := litho.New(sim.Cfg, sim.N/2); err == nil {
			coarseSim.KOpt = sim.KOpt
			coarseSim.Ctx = sim.Ctx // cancellation and heartbeats span both stages
			ct := grid.DownsampleBox(target, 2).Binarize(0.5)
			croi := e.Cfg.roiFor(coarseSim, ct)
			cp := latentInit(ct, e.Cfg.BackgroundBias)
			adam := opt.NewAdam(len(cp.Data), e.Cfg.LearningRate)
			gradP := make([]float64, len(cp.Data))
			for it := 0; it < coarseIters; it++ {
				m := maskFromLatent(cp, e.Cfg.MaskSteepness)
				res := coarseSim.LossGrad(m, ct, e.Cfg.WL2, e.Cfg.WPVB)
				for i := range gradP {
					mi := m.Data[i]
					gradP[i] = res.GradM.Data[i] * e.Cfg.MaskSteepness * mi * (1 - mi)
					if croi != nil {
						gradP[i] *= croi.Data[i]
					}
				}
				adam.Step(cp.Data, gradP)
				opt.Beat(sim.Ctx, it, res.Loss)
			}
			p = grid.UpsampleBilinear(cp, 2)
		}
	}

	roi := e.Cfg.roiFor(sim, target)
	adam := opt.NewAdam(len(p.Data), e.Cfg.LearningRate)
	gradP := make([]float64, len(p.Data))
	for it := 0; it < e.Cfg.Iterations; it++ {
		m := maskFromLatent(p, e.Cfg.MaskSteepness)
		res := sim.LossGrad(m, target, e.Cfg.WL2, e.Cfg.WPVB)
		for i := range gradP {
			mi := m.Data[i]
			gradP[i] = res.GradM.Data[i] * e.Cfg.MaskSteepness * mi * (1 - mi)
			if roi != nil {
				gradP[i] *= roi.Data[i]
			}
		}
		adam.Step(p.Data, gradP)
		opt.Beat(sim.Ctx, it, res.Loss)
	}
	final := maskFromLatent(p, e.Cfg.MaskSteepness)
	if roi != nil {
		final.Mul(roi)
	}
	return CleanMask(final, e.Cfg.MinFeaturePx)
}

// traced runs optimize on sim with a heartbeat receiver attached and
// returns its mask and the loss of every step, in order.
func traced(sim *litho.Simulator, optimize func() *grid.Real) (*grid.Real, []float64) {
	var losses []float64
	sim.Ctx = opt.WithProgress(context.Background(), func(_ int, loss float64, _ time.Time) {
		losses = append(losses, loss)
	})
	defer func() { sim.Ctx = nil }()
	return optimize(), losses
}

// sameRun asserts two runs' masks and loss histories are ==, step by step.
func sameRun(t *testing.T, name string, got, want *grid.Real, gotLoss, wantLoss []float64) {
	t.Helper()
	if len(gotLoss) != len(wantLoss) {
		t.Fatalf("%s: %d steps, the reference took %d", name, len(gotLoss), len(wantLoss))
	}
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] && !(math.IsNaN(gotLoss[i]) && math.IsNaN(wantLoss[i])) {
			t.Fatalf("%s: step %d loss %v, the reference's %v", name, i, gotLoss[i], wantLoss[i])
		}
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: mask pixel %d is %v, the reference's %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// The ROI-only loop gives the whole-grid loop's masks and losses, ==,
// with Adam and L-BFGS, with the gate at several margins and with none.
// The reference runs on its own simulator, so neither run sees the
// other's last mask.
func TestMosaicMatchesRef(t *testing.T) {
	for _, optimizer := range []string{"adam", "lbfgs"} {
		for _, margin := range []float64{40, 0, -1} {
			name := fmt.Sprintf("%s/margin=%g", optimizer, margin)
			cfg := quickCfg()
			cfg.Iterations = 8
			cfg.Optimizer = optimizer
			cfg.ROIMarginNM = margin
			sim, target := testSetup(t)
			refSim, _ := testSetup(t)
			got, gotLoss := traced(sim, func() *grid.Real { return (&Mosaic{Cfg: cfg}).Optimize(sim, target) })
			want, wantLoss := traced(refSim, func() *grid.Real { return mosaicRef(&Mosaic{Cfg: cfg}, refSim, target) })
			sameRun(t, name, got, want, gotLoss, wantLoss)
			if got.Sum() == 0 {
				t.Fatalf("%s: empty mask; the comparison tests nothing", name)
			}
		}
	}
}

// Both MultiLevel stages through the one loop equal the two copies it
// replaced, at the coarse and the fine grid, gated and not.
func TestMultiLevelMatchesRef(t *testing.T) {
	for _, margin := range []float64{0, -1} {
		name := fmt.Sprintf("margin=%g", margin)
		cfg := quickCfg()
		cfg.Iterations = 6
		cfg.ROIMarginNM = margin
		cfg.BackgroundBias = -0.3
		sim, target := testSetup(t)
		refSim, _ := testSetup(t)
		got, gotLoss := traced(sim, func() *grid.Real {
			return (&MultiLevel{Cfg: cfg, CoarseIterations: 5}).Optimize(sim, target)
		})
		want, wantLoss := traced(refSim, func() *grid.Real {
			return multiLevelRef(&MultiLevel{Cfg: cfg, CoarseIterations: 5}, refSim, target)
		})
		if len(wantLoss) != 11 {
			t.Fatalf("%s: the reference took %d steps, want 5 coarse + 6 fine", name, len(wantLoss))
		}
		sameRun(t, name, got, want, gotLoss, wantLoss)
	}
}
