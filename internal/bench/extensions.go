package bench

import (
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
)

// ExtensionGreedy compares Algorithm 1 against greedy set-cover
// fracturing — what this library adds beyond the paper — on the strongest
// baseline's masks.
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
