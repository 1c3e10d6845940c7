package bench

import (
	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
)

// The extension experiments exercise the features this library adds beyond
// the paper: dose-modulated circular writing and greedy set-cover
// fracturing.

// ExtensionDose compares CircleOpt's binary-activation shots against
// DoseOpt's dose-modulated shots on the selected cases.
func (r *Runner) ExtensionDose() *Table {
	t := &Table{
		Title:  "Extension: dose-modulated circular writing (DoseOpt) vs CircleOpt",
		Header: []string{"Method", "L2", "PVB", "EPE", "#Shot"},
	}
	co, do := &avg{}, &avg{}
	for ci := range r.Suite {
		rep, _ := r.RunCircleOpt(ci, r.Opt.SampleDistNM, r.Opt.Gamma)
		co.add(rep)

		cfg := core.DefaultConfig(r.Sim.DX)
		cfg.Iterations = r.Opt.CircleOptIters
		cfg.Gamma = r.Opt.Gamma / r.Sim.DX
		e := &core.DoseOpt{
			Cfg:            cfg,
			InitIterations: r.Opt.InitIters,
			RuleCfg:        r.ruleConfig(r.Opt.SampleDistNM),
		}
		res := e.Optimize(r.Sim, r.Targets[ci])
		do.add(r.EvaluateMask(ci, res.Mask, len(res.Shots)))
	}
	t.Rows = append(t.Rows,
		append([]string{"CircleOpt"}, co.row()...),
		append([]string{"DoseOpt"}, do.row()...))
	return t
}

// ExtensionGreedy compares Algorithm 1 against greedy set-cover
// fracturing on the strongest baseline's masks.
func (r *Runner) ExtensionGreedy() *Table {
	t := &Table{
		Title:  "Extension: greedy set-cover fracturing vs CircleRule (MultiILT masks)",
		Header: []string{"Fracturer", "L2", "PVB", "EPE", "#Shot"},
	}
	rule, greedy := &avg{}, &avg{}
	for ci := range r.Suite {
		mask := r.PixelMask("MultiILT", ci)
		rep, _ := r.RunCircleRule("MultiILT", ci, r.Opt.SampleDistNM)
		rule.add(rep)

		rc := r.ruleConfig(r.Opt.SampleDistNM)
		shots := fracture.GreedyCircles(mask, fracture.GreedyCircleConfig{
			RMin: rc.RMin, RMax: rc.RMax, CoverThreshold: rc.CoverThreshold,
		})
		rec := geom.RasterizeCircles(r.Sim.N, r.Sim.N, shots)
		greedy.add(r.EvaluateMask(ci, rec, len(shots)))
	}
	t.Rows = append(t.Rows,
		append([]string{"CircleRule"}, rule.row()...),
		append([]string{"GreedyCircles"}, greedy.row()...))
	return t
}
