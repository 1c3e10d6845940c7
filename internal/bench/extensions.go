package bench

import "cfaopc/internal/fracture"

// ExtensionGreedy compares Algorithm 1 against greedy set-cover
// fracturing — what this library adds beyond the paper — on the strongest
// baseline's masks.
func (r *Runner) ExtensionGreedy() *Table {
	t := &Table{
		Title:  "Extension: greedy set-cover fracturing vs CircleRule (MultiILT masks)",
		Header: []string{"Fracturer", "L2", "PVB", "EPE", "#Shot"},
	}
	rule, greedy := &avg{}, &avg{}
	rc := r.ruleConfig(r.Opt.SampleDistNM)
	gc := fracture.GreedyCircleConfig{RMin: rc.RMin, RMax: rc.RMax, CoverThreshold: rc.CoverThreshold}
	for ci := range r.Suite {
		rep, _ := r.RunCircleRule("MultiILT", ci, r.Opt.SampleDistNM)
		rule.add(rep)
		greedy.add(r.scoreShots(ci, fracture.GreedyCircles(r.PixelMask("MultiILT", ci), gc)))
	}
	t.Rows = append(t.Rows,
		append([]string{"CircleRule"}, rule.row()...),
		append([]string{"GreedyCircles"}, greedy.row()...))
	return t
}
