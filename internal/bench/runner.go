// Package bench is the experiment harness: it runs every OPC method over
// the benchmark suite and regenerates each table and figure of the paper's
// evaluation section (Tables 1–3, Figures 1, 6 and 7) as formatted text
// and PNG renders.
package bench

import (
	"fmt"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
)

// Baseline names (the paper's column order).
var Baselines = []string{"DevelSet", "NeuralILT", "MultiILT"}

// Options configures a harness run.
type Options struct {
	GridN          int     // simulation grid (pixels per side of the 2048 nm tile)
	Cases          []int   // 1-based case subset; nil = all ten
	BaselineIters  int     // pixel-engine iterations
	CircleOptIters int     // CircleOpt stage-2 iterations
	InitIters      int     // CircleOpt stage-1 (MOSAIC) iterations
	KOpt           int     // kernels used during optimization (all at eval)
	SampleDistNM   float64 // CircleRule/CircleOpt sample distance m
	Gamma          float64 // CircleOpt sparsity weight
	RectBlockNM    float64 // Manhattanization grid for VSB shot counting
}

// DefaultOptions returns the settings used for the recorded experiments:
// a 256² grid (8 nm/px) over all ten cases with the paper's
// hyper-parameters.
func DefaultOptions() Options {
	return Options{
		GridN:          256,
		BaselineIters:  40,
		CircleOptIters: 60,
		InitIters:      24,
		KOpt:           5,
		SampleDistNM:   32,
		Gamma:          3,
		RectBlockNM:    0, // finest: Manhattanize at 1 px
	}
}

// Runner executes methods over the suite, memoizing the expensive pixel
// masks so Tables 1 and 2 and Figure 7 share work.
type Runner struct {
	Opt     Options
	Sim     *litho.Simulator
	Suite   []*layout.Layout
	Targets []*grid.Real

	pixelMasks     map[string]*grid.Real
	circleOptCache map[string]*core.Result
}

// NewRunner builds the simulator and rasterizes the benchmark suite.
func NewRunner(o Options) (*Runner, error) {
	if o.GridN <= 0 {
		return nil, fmt.Errorf("bench: invalid grid size %d", o.GridN)
	}
	cfg := optics.Default()
	sim, err := litho.New(cfg, o.GridN)
	if err != nil {
		return nil, err
	}
	sim.KOpt = o.KOpt
	all := layout.GenerateSuite()
	var suite []*layout.Layout
	if len(o.Cases) == 0 {
		suite = all
	} else {
		for _, id := range o.Cases {
			if id < 1 || id > len(all) {
				return nil, fmt.Errorf("case %d: the suite is cases 1..%d", id, len(all))
			}
			suite = append(suite, all[id-1])
		}
	}
	r := &Runner{
		Opt:            o,
		Sim:            sim,
		Suite:          suite,
		pixelMasks:     map[string]*grid.Real{},
		circleOptCache: map[string]*core.Result{},
	}
	for _, l := range suite {
		r.Targets = append(r.Targets, l.Rasterize(o.GridN))
	}
	return r, nil
}

// engine instantiates a named baseline.
func (r *Runner) engine(name string) ilt.Engine {
	cfg := ilt.DefaultConfig()
	cfg.Iterations = r.Opt.BaselineIters
	// Mask-rule cleanup: drop features smaller than ~24×24 nm regardless
	// of grid resolution (speckles that would never survive MRC).
	cfg.MinFeaturePx = max(2, int(576/(r.Sim.DX*r.Sim.DX)))
	switch name {
	case "DevelSet":
		return &ilt.LevelSet{Cfg: cfg}
	case "NeuralILT":
		return &ilt.CycleILT{Cfg: cfg}
	case "MultiILT":
		cfg.BackgroundBias = -0.5 // SRAF-friendly
		return &ilt.MultiLevel{Cfg: cfg, CoarseIterations: r.Opt.BaselineIters / 2}
	default:
		panic(fmt.Sprintf("bench: unknown engine %q", name))
	}
}

// PixelMask returns (computing once) the binary mask of a baseline engine
// on case index ci (0-based within the selected subset).
func (r *Runner) PixelMask(name string, ci int) *grid.Real {
	key := fmt.Sprintf("%s/%d", name, ci)
	if m, ok := r.pixelMasks[key]; ok {
		return m
	}
	m := r.engine(name).Optimize(r.Sim, r.Targets[ci])
	r.pixelMasks[key] = m
	return m
}

// ruleConfig returns the CircleRule settings for sample distance mNM.
func (r *Runner) ruleConfig(mNM float64) fracture.CircleRuleConfig {
	cfg := fracture.DefaultCircleRuleConfig(r.Sim.DX)
	cfg.SampleDist = max(1, int(mNM/r.Sim.DX+0.5))
	return cfg
}

// EvaluateMask scores a binary mask against case ci at the three process
// corners.
func (r *Runner) EvaluateMask(ci int, mask *grid.Real, shots int) metrics.Report {
	res := r.Sim.Simulate(mask)
	return metrics.Evaluate(r.Suite[ci], res.ZNom, res.ZMax, res.ZMin, shots)
}

// RunRect evaluates a baseline's raw pixel mask with VSB rectangle shots
// (the unprimed rows of Table 1).
func (r *Runner) RunRect(name string, ci int) metrics.Report {
	mask := r.PixelMask(name, ci)
	block := 1 // RectBlockNM ≤ 0 means the finest grid the mask has
	if r.Opt.RectBlockNM > 0 {
		block = max(1, int(r.Opt.RectBlockNM/r.Sim.DX+0.5))
	}
	rects := fracture.RectShots(mask, block)
	return r.EvaluateMask(ci, mask, len(rects))
}

// scoreShots rasterizes a circle shot list and scores it against case ci:
// the step after every fracturer.
func (r *Runner) scoreShots(ci int, shots []geom.Circle) metrics.Report {
	return r.EvaluateMask(ci, geom.RasterizeCircles(r.Sim.N, r.Sim.N, shots), len(shots))
}

// RunCircleRule fractures a baseline's mask with Algorithm 1 at sample
// distance mNM and evaluates the reconstructed circular mask.
func (r *Runner) RunCircleRule(name string, ci int, mNM float64) (metrics.Report, []geom.Circle) {
	shots := fracture.CircleRule(r.PixelMask(name, ci), r.ruleConfig(mNM))
	return r.scoreShots(ci, shots), shots
}

// circleOpt is the harness's one CircleOpt: stage 2 at the runner's
// iteration count with sparsity weight gamma (in the paper's 1 nm/px
// scale; rescaled by 1/dx), stage 1 at its init count, seeded by CircleRule
// at sample distance mNM. mutate, when non-nil, edits the config last (the
// ablations' variants).
func (r *Runner) circleOpt(mNM, gamma float64, mutate func(*core.Config)) *core.CircleOpt {
	cfg := core.DefaultConfig(r.Sim.DX)
	cfg.Iterations = r.Opt.CircleOptIters
	cfg.Gamma = gamma / r.Sim.DX
	if mutate != nil {
		mutate(&cfg)
	}
	return &core.CircleOpt{Cfg: cfg, InitIterations: r.Opt.InitIters, RuleCfg: r.ruleConfig(mNM)}
}

// RunCircleOpt executes the optimization-based method on case ci with
// sample distance mNM and sparsity weight gamma, memoized.
func (r *Runner) RunCircleOpt(ci int, mNM, gamma float64) (metrics.Report, *core.Result) {
	key := fmt.Sprintf("%d/%g/%g", ci, mNM, gamma)
	res, ok := r.circleOptCache[key]
	if !ok {
		res = r.circleOpt(mNM, gamma, nil).Optimize(r.Sim, r.Targets[ci])
		r.circleOptCache[key] = res
	}
	return r.EvaluateMask(ci, res.Mask, len(res.Shots)), res
}
