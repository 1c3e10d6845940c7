package bench

import (
	"fmt"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/metrics"
)

// The ablation benches probe the design choices DESIGN.md calls out beyond
// the paper's own Table 3 / Figure 7 studies: the straight-through
// estimator, the coverage-repair extension to Algorithm 1, the circular
// window steepness α, and the kernel truncation used inside optimization.

// runCircleOptVariant executes CircleOpt with a config mutator (nil for
// none) on every selected case and returns the averaged report.
func (r *Runner) runCircleOptVariant(mutate func(*core.Config)) metrics.Report {
	acc := &avg{}
	for ci := range r.Suite {
		res := r.circleOpt(r.Opt.SampleDistNM, r.Opt.Gamma, mutate).Optimize(r.Sim, r.Targets[ci])
		acc.add(r.EvaluateMask(ci, res.Mask, len(res.Shots)))
	}
	return acc.report()
}

func reportRow(name string, rep metrics.Report) []string {
	return []string{name, f1(rep.L2), f1(rep.PVB), fmt.Sprintf("%d", rep.EPE), fmt.Sprintf("%d", rep.Shots)}
}

// AblationSTE compares CircleOpt optimizing through the straight-through
// estimator against optimizing the continuous relaxation and quantizing
// only at the end. Without STE the optimizer never sees the integer grid
// it must land on, so the final rounding step degrades the mask it tuned.
func (r *Runner) AblationSTE() *Table {
	t := &Table{
		Title:  "Ablation: straight-through estimator in CircleOpt",
		Header: []string{"Variant", "L2", "PVB", "EPE", "#Shot"},
	}
	with := r.runCircleOptVariant(nil)
	without := r.runCircleOptVariant(func(c *core.Config) { c.DisableSTE = true })
	t.Rows = append(t.Rows,
		reportRow("CircleOpt (STE)", with),
		reportRow("CircleOpt (continuous, round at end)", without))
	return t
}

// AblationAlpha sweeps the circular window steepness α. Small α blurs the
// circle boundary (gradients reach far but the rendered mask is soft);
// large α approaches a hard disk whose boundary band is too thin to pass
// useful gradients.
func (r *Runner) AblationAlpha(alphas []float64) *Table {
	t := &Table{
		Title:  "Ablation: circular window steepness α",
		Header: []string{"alpha", "L2", "PVB", "EPE", "#Shot"},
	}
	for _, a := range alphas {
		alpha := a
		rep := r.runCircleOptVariant(func(c *core.Config) { c.Alpha = alpha })
		t.Rows = append(t.Rows, reportRow(fmt.Sprintf("%g", alpha), rep))
	}
	return t
}

// AblationCoverageRepair measures the coverage-repair extension to
// Algorithm 1 (DESIGN.md §4): with thinning-collapsed skeletons, wide
// regions are under-covered unless repaired.
func (r *Runner) AblationCoverageRepair() *Table {
	t := &Table{
		Title:  "Ablation: CircleRule coverage repair (on MultiILT masks)",
		Header: []string{"Variant", "L2", "PVB", "EPE", "#Shot"},
	}
	run := func(disable bool) metrics.Report {
		acc := &avg{}
		for ci := range r.Suite {
			cfg := r.ruleConfig(r.Opt.SampleDistNM)
			cfg.DisableRepair = disable
			acc.add(r.scoreShots(ci, fracture.CircleRule(r.PixelMask("MultiILT", ci), cfg)))
		}
		return acc.report()
	}
	t.Rows = append(t.Rows,
		reportRow("CircleRule (with repair)", run(false)),
		reportRow("CircleRule (skeleton only)", run(true)))
	return t
}

// AblationKernels sweeps the number of SOCS kernels used inside the
// optimization loop (evaluation always uses all of them): the speed /
// gradient-fidelity trade-off every ILT implementation makes.
func (r *Runner) AblationKernels(ks []int) *Table {
	t := &Table{
		Title:  "Ablation: SOCS kernels used during optimization",
		Header: []string{"K_opt", "L2", "PVB", "EPE", "#Shot"},
	}
	orig := r.Sim.KOpt
	defer func() { r.Sim.KOpt = orig }()
	for _, k := range ks {
		r.Sim.KOpt = k
		rep := r.runCircleOptVariant(nil)
		t.Rows = append(t.Rows, reportRow(fmt.Sprintf("%d", k), rep))
	}
	return t
}
