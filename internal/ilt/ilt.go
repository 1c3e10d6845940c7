// Package ilt implements the pixel-level inverse lithography engines the
// paper builds on and compares against. All engines share the simulator's
// differentiable loss (squared L2 + PVB surrogate, Equation (6)) and differ
// in parameterization and schedule:
//
//   - Mosaic: the classic sigmoid-relaxed gradient ILT of Gao et al. (the
//     paper's stage-1 initializer).
//   - LevelSet: a level-set-parameterized ILT standing in for DevelSet —
//     DevelSet's network amortizes exactly this optimization. Its fronts
//     can move and merge but new features never nucleate far from the
//     pattern, so masks carry no SRAFs, matching the paper's observation.
//   - CycleILT: an L2-only engine standing in for NeuralILT, whose
//     cycle-style loss ignores process windows; this reproduces the
//     published signature of low L2 with elevated PVB.
//   - MultiLevel: a coarse-to-fine engine standing in for MultiILT's
//     multi-level lithography simulation, with an SRAF-friendly
//     initialization; the strongest baseline, as in the paper.
//
// Every Optimize returns a binary mask on the simulator's grid.
package ilt

import (
	"fmt"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
)

// Engine is a pixel-level mask optimizer.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Optimize produces a binary mask for target on sim's grid.
	Optimize(sim *litho.Simulator, target *grid.Real) *grid.Real
}

// Config holds the knobs shared by the pixel engines.
type Config struct {
	Iterations    int     // gradient steps
	LearningRate  float64 // Adam step size
	MaskSteepness float64 // θ_m of the sigmoid mask binarization
	WL2, WPVB     float64 // loss weights
	// BackgroundBias is the latent value of non-target pixels at
	// initialization; values nearer zero let SRAFs nucleate.
	BackgroundBias float64
	// MinFeaturePx removes final-mask connected components smaller than
	// this pixel count (mask-rule style cleanup). Zero disables.
	MinFeaturePx int
	// ROIMarginNM freezes mask pixels farther than this distance (nm)
	// from the target: production ILT optimizes only a region of interest
	// around the pattern, and without it Adam's per-parameter scaling
	// amplifies sub-threshold interference ripples across the whole tile
	// into thousands of spurious features. Zero means the 120 nm default;
	// negative disables the ROI entirely.
	ROIMarginNM float64
	// Optimizer selects the first-order machinery for the Mosaic engine:
	// "adam" (default) or "lbfgs" (quasi-Newton with Armijo line search;
	// fewer but costlier iterations — each L-BFGS step evaluates the
	// lithography loss once per line-search trial).
	Optimizer string
}

// roiMask returns a 0/1 gate that is 1 within marginPx of the target.
func roiMask(target *grid.Real, marginPx float64) *grid.Real {
	d := geom.DistanceTransform(target)
	roi := grid.NewReal(target.W, target.H)
	for i, v := range d.Data {
		if v <= marginPx {
			roi.Data[i] = 1
		}
	}
	return roi
}

// roiFor resolves the configured ROI gate for a simulator grid; nil means
// no gating.
func (c Config) roiFor(sim *litho.Simulator, target *grid.Real) *grid.Real {
	margin := c.ROIMarginNM
	if margin == 0 {
		margin = 120
	}
	if margin < 0 {
		return nil
	}
	return roiMask(target, margin/sim.DX)
}

// DefaultConfig returns the shared baseline configuration: 40 iterations
// of Adam at the paper's step size 0.1, θ_m = 4, equal L2/PVB weights.
func DefaultConfig() Config {
	return Config{
		Iterations:     40,
		LearningRate:   0.1,
		MaskSteepness:  4,
		WL2:            1,
		WPVB:           1,
		BackgroundBias: -1,
		MinFeaturePx:   4,
	}
}

func (c Config) validate() {
	if c.Iterations <= 0 || c.LearningRate <= 0 || c.MaskSteepness <= 0 {
		panic(fmt.Sprintf("ilt: invalid config %+v", c))
	}
}

// CleanMask removes connected components smaller than minPx pixels,
// returning a new mask. minPx ≤ 0 returns a copy.
func CleanMask(m *grid.Real, minPx int) *grid.Real {
	out := m.Binarize(0.5)
	if minPx <= 0 {
		return out
	}
	labels := geom.Components(out, true)
	areas := labels.Areas()
	for i, id := range labels.Label {
		if id != 0 && areas[id] < minPx {
			out.Data[i] = 0
		}
	}
	return out
}

// latentInit builds the sigmoid latent field: +1 on target, bias off it.
func latentInit(target *grid.Real, backgroundBias float64) *grid.Real {
	p := grid.NewReal(target.W, target.H)
	for i, v := range target.Data {
		if v > 0.5 {
			p.Data[i] = 1
		} else {
			p.Data[i] = backgroundBias
		}
	}
	return p
}

// maskFromLatent maps the latent field through σ(θ_m·p).
func maskFromLatent(p *grid.Real, steepness float64) *grid.Real {
	m := grid.NewReal(p.W, p.H)
	for i, v := range p.Data {
		m.Data[i] = litho.Sigmoid(steepness * v)
	}
	return m
}

// Mosaic is the sigmoid-relaxed pixel ILT of MOSAIC (Gao et al., DAC'14):
// latent pixels p, mask σ(θ_m·p), Adam on ∇(L2 + PVB).
type Mosaic struct {
	Cfg Config
}

// Name implements Engine.
func (e *Mosaic) Name() string { return "MOSAIC" }

// Optimize implements Engine.
func (e *Mosaic) Optimize(sim *litho.Simulator, target *grid.Real) *grid.Real {
	e.Cfg.validate()
	p := latentInit(target, e.Cfg.BackgroundBias)
	roi := e.Cfg.roiFor(sim, target)
	e.Cfg.descend(sim, target, p, roi, e.Cfg.Iterations, e.Cfg.Optimizer == "lbfgs")
	return e.Cfg.finalMask(p, roi)
}

// descend runs iters steps of Adam (L-BFGS when lbfgs is set) on the
// latent field p, in place, against sim's loss for target. Its parameters
// are the pixels the ROI gate leaves open — every pixel when roi is nil —
// and nothing else is touched after the mask is painted once: a gated
// pixel's gradient is x·0, which moves it by lr·0/(0+ε) = 0 under Adam and
// adds only exact zeros to L-BFGS's dot products, so its latent and mask
// value never change. Each step repaints σ(θ_m·p), forms the gradient and
// steps the optimizer on the open pixels alone, and the simulator inverts
// the gradient only on their columns.
func (c Config) descend(sim *litho.Simulator, target, p, roi *grid.Real, iters int, lbfgs bool) {
	var open []int
	var x []float64
	x0, x1 := p.W, 0
	for i, v := range p.Data {
		if roi == nil || roi.Data[i] != 0 {
			open, x = append(open, i), append(x, v)
			x0, x1 = min(x0, i%p.W), max(x1, i%p.W+1)
		}
	}
	x0 = min(x0, x1) // nothing open: the empty span [0, 0)

	// One mask and one gradient serve every evaluation: Adam consumes the
	// gradient before the next call, and LBFGS.Step copies the one it
	// keeps (and drops its line-search trials') before it evaluates again.
	m := maskFromLatent(p, c.MaskSteepness)
	g := make([]float64, len(open))
	lossGrad := func(latent []float64) (float64, []float64) {
		for j, i := range open {
			m.Data[i] = litho.Sigmoid(c.MaskSteepness * latent[j])
		}
		res := sim.LossGradCols(m, target, c.WL2, c.WPVB, x0, x1)
		for j, i := range open {
			mi := m.Data[i]
			g[j] = res.GradM.Data[i] * c.MaskSteepness * mi * (1 - mi)
		}
		return res.Loss, g
	}

	if lbfgs {
		l := opt.NewLBFGS()
		l.InitialStep = c.LearningRate
		for it := 0; it < iters; it++ {
			loss := l.Step(x, lossGrad)
			opt.Beat(sim.Ctx, it, loss)
		}
	} else {
		adam := opt.NewAdam(len(x), c.LearningRate)
		for it := 0; it < iters; it++ {
			loss, g := lossGrad(x)
			adam.Step(x, g)
			opt.Beat(sim.Ctx, it, loss)
		}
	}
	for j, i := range open {
		p.Data[i] = x[j]
	}
}

// finalMask is the cleaned binary mask of the latent field p, closed
// outside the ROI gate.
func (c Config) finalMask(p, roi *grid.Real) *grid.Real {
	final := maskFromLatent(p, c.MaskSteepness)
	if roi != nil {
		final.Mul(roi)
	}
	return CleanMask(final, c.MinFeaturePx)
}

// CycleILT is the NeuralILT stand-in: identical machinery to Mosaic but
// with an L2-only (cycle-style) objective and a tight initialization, so
// the optimizer trades process-window robustness for pattern fidelity.
type CycleILT struct {
	Cfg Config
}

// Name implements Engine.
func (e *CycleILT) Name() string { return "NeuralILT" }

// Optimize implements Engine.
func (e *CycleILT) Optimize(sim *litho.Simulator, target *grid.Real) *grid.Real {
	e.Cfg.validate()
	cfg := e.Cfg
	cfg.WPVB = 0 // the defining trait: no process-window term
	inner := Mosaic{Cfg: cfg}
	return inner.Optimize(sim, target)
}

// LevelSet is the DevelSet stand-in: the mask is the sub-zero level set of
// an evolving signed-distance field φ, softened as σ(−θ_m·φ) for
// differentiation. The field is periodically re-initialized to a true
// signed distance to keep the front well conditioned. Because the sigmoid
// band is narrow, gradients far from the current boundary vanish and no
// SRAFs nucleate — matching the paper's DevelSet+CircleRule shot counts,
// which reflect SRAF-free masks.
type LevelSet struct {
	Cfg Config
	// ReinitEvery re-distances φ every this many iterations (default 10).
	ReinitEvery int
}

// Name implements Engine.
func (e *LevelSet) Name() string { return "DevelSet" }

// Optimize implements Engine.
func (e *LevelSet) Optimize(sim *litho.Simulator, target *grid.Real) *grid.Real {
	e.Cfg.validate()
	reinit := e.ReinitEvery
	if reinit <= 0 {
		reinit = 10
	}
	phi := geom.SignedDistance(target)
	sgd := opt.NewSGD(len(phi.Data), e.Cfg.LearningRate*10, 0.5)
	gradPhi := make([]float64, len(phi.Data))
	steep := e.Cfg.MaskSteepness / 2 // band half-width ≈ 2 px
	m, bin := grid.NewReal(phi.W, phi.H), grid.NewReal(phi.W, phi.H)
	inside := func() *grid.Real {
		for i, v := range phi.Data {
			bin.Data[i] = 0
			if v < 0 {
				bin.Data[i] = 1
			}
		}
		return bin
	}
	for it := 0; it < e.Cfg.Iterations; it++ {
		for i, v := range phi.Data {
			m.Data[i] = litho.Sigmoid(-steep * v)
		}
		res := sim.LossGrad(m, target, e.Cfg.WL2, e.Cfg.WPVB)
		for i := range gradPhi {
			mi := m.Data[i]
			gradPhi[i] = res.GradM.Data[i] * (-steep) * mi * (1 - mi)
		}
		sgd.Step(phi.Data, gradPhi)
		opt.Beat(sim.Ctx, it, res.Loss)
		if (it+1)%reinit == 0 {
			phi = geom.SignedDistance(inside())
		}
	}
	return CleanMask(inside(), e.Cfg.MinFeaturePx)
}

// MultiLevel is the MultiILT stand-in: the mask is first optimized on a
// half-resolution simulator (cheap, smooth loss landscape), then the
// latent field is upsampled and refined at full resolution. The background
// bias is relaxed so sub-resolution assist features can nucleate, which is
// why this baseline carries the highest shot counts in Table 2.
type MultiLevel struct {
	Cfg Config
	// CoarseIterations runs at half resolution before refinement
	// (default: Iterations).
	CoarseIterations int
}

// Name implements Engine.
func (e *MultiLevel) Name() string { return "MultiILT" }

// Optimize implements Engine.
func (e *MultiLevel) Optimize(sim *litho.Simulator, target *grid.Real) *grid.Real {
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
			cp := latentInit(ct, e.Cfg.BackgroundBias)
			e.Cfg.descend(coarseSim, ct, cp, e.Cfg.roiFor(coarseSim, ct), coarseIters, false)
			p = grid.UpsampleBilinear(cp, 2)
		}
	}

	roi := e.Cfg.roiFor(sim, target)
	e.Cfg.descend(sim, target, p, roi, e.Cfg.Iterations, false)
	return e.Cfg.finalMask(p, roi)
}
