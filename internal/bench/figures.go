package bench

import (
	"fmt"
	"strings"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
)

// Series is one line of a figure: label plus (x, y) points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a plotted experiment rendered as text series.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders the figure's series as aligned columns.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (x: %s, y: %s)\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-24s", s.Label)
		for i := range s.X {
			fmt.Fprintf(&b, "  (%g, %.1f)", s.X[i], s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure7SampleDistances are the paper's swept m values (nm).
var Figure7SampleDistances = []float64{28, 32, 36}

// Figure7 reproduces the sample-distance ablation: average #Shot (a),
// L2+PVB (b) and EPE (c) for CircleRule (on MultiILT masks, the strongest
// pixel baseline, as in the paper) and CircleOpt, plus the constant
// MultiILT VSB shot-count line of panel (a).
func (r *Runner) Figure7() (shotFig, qualityFig, epeFig *Figure) {
	shotFig = &Figure{Title: "Figure 7a: shot count vs sample distance", XLabel: "m (nm)", YLabel: "#Shot"}
	qualityFig = &Figure{Title: "Figure 7b: L2+PVB vs sample distance", XLabel: "m (nm)", YLabel: "L2+PVB (nm2)"}
	epeFig = &Figure{Title: "Figure 7c: EPE vs sample distance", XLabel: "m (nm)", YLabel: "EPE"}

	ruleShots := Series{Label: "CircleRule"}
	optShots := Series{Label: "CircleOpt"}
	multiShots := Series{Label: "MultiILT (rect)"}
	ruleQ := Series{Label: "CircleRule"}
	optQ := Series{Label: "CircleOpt"}
	ruleE := Series{Label: "CircleRule"}
	optE := Series{Label: "CircleOpt"}

	// MultiILT's rectangle shot count is independent of m.
	multiAvg := 0.0
	for ci := range r.Suite {
		multiAvg += float64(r.RunRect("MultiILT", ci).Shots)
	}
	multiAvg /= float64(len(r.Suite))

	for _, m := range Figure7SampleDistances {
		rule, opt := &avg{}, &avg{}
		for ci := range r.Suite {
			rep, _ := r.RunCircleRule("MultiILT", ci, m)
			rule.add(rep)
			repO, _ := r.RunCircleOpt(ci, m, r.Opt.Gamma)
			opt.add(repO)
		}
		n := float64(rule.n)
		ruleShots.X = append(ruleShots.X, m)
		ruleShots.Y = append(ruleShots.Y, rule.shots/n)
		optShots.X = append(optShots.X, m)
		optShots.Y = append(optShots.Y, opt.shots/n)
		multiShots.X = append(multiShots.X, m)
		multiShots.Y = append(multiShots.Y, multiAvg)
		ruleQ.X = append(ruleQ.X, m)
		ruleQ.Y = append(ruleQ.Y, (rule.l2+rule.pvb)/n)
		optQ.X = append(optQ.X, m)
		optQ.Y = append(optQ.Y, (opt.l2+opt.pvb)/n)
		ruleE.X = append(ruleE.X, m)
		ruleE.Y = append(ruleE.Y, rule.epe/n)
		optE.X = append(optE.X, m)
		optE.Y = append(optE.Y, opt.epe/n)
	}
	shotFig.Series = []Series{ruleShots, optShots, multiShots}
	qualityFig.Series = []Series{ruleQ, optQ}
	epeFig.Series = []Series{ruleE, optE}
	return shotFig, qualityFig, epeFig
}

// Figure1 reproduces the fracturing comparison of Figure 1: rectangle vs
// circular shot counts for each baseline's curvilinear mask, averaged over
// the selected cases.
func (r *Runner) Figure1() *Table {
	t := &Table{
		Title:  "Figure 1: rectangular vs circular fracturing (average shots)",
		Header: []string{"Mask source", "Rect shots", "Circle shots", "Reduction"},
	}
	for _, name := range Baselines {
		rectN, circN := 0.0, 0.0
		for ci := range r.Suite {
			rectN += float64(r.RunRect(name, ci).Shots)
			rep, _ := r.RunCircleRule(name, ci, r.Opt.SampleDistNM)
			circN += float64(rep.Shots)
		}
		n := float64(len(r.Suite))
		red := "n/a"
		if circN > 0 {
			red = fmt.Sprintf("%.1fx", rectN/circN)
		}
		t.Rows = append(t.Rows, []string{name, f1(rectN / n), f1(circN / n), red})
	}
	return t
}

// ScalingGrids are the resolutions the scaling exhibit sweeps.
var ScalingGrids = []int{256, 512, 1024}

// Scaling measures how fracturing cost scales with the mask grid: Figure
// 1's DevelSet counts at each grid, per selected case. Rectangle counts
// grow with resolution because every staircase step of a curvilinear
// boundary becomes a rectangle edge, while circle counts track the
// physical geometry — why the paper's 1 nm/px rectangle counts exceed the
// ones recorded here at 4 nm/px. The runner's own grid reuses its masks.
func (r *Runner) Scaling(grids []int) (*Table, error) {
	t := &Table{
		Title:  "Resolution scaling: DevelSet mask fractured at each grid",
		Header: []string{"Bench", "Grid", "nm/px", "Rect shots", "Circle shots", "Reduction"},
	}
	for _, n := range grids {
		g := r
		if n != r.Opt.GridN {
			o := r.Opt
			o.GridN = n
			var err error
			if g, err = NewRunner(o); err != nil {
				return nil, err
			}
		}
		for ci, l := range g.Suite {
			rect := g.RunRect("DevelSet", ci).Shots
			_, circles := g.RunCircleRule("DevelSet", ci, g.Opt.SampleDistNM)
			t.Rows = append(t.Rows, []string{l.Name, fmt.Sprint(n), f1(g.Sim.DX),
				fmt.Sprint(rect), fmt.Sprint(len(circles)), fmt.Sprintf("%.1fx", float64(rect)/float64(max(1, len(circles))))})
		}
	}
	return t, nil
}

// The process-window exhibit's sweep: eight focus conditions by five
// relative doses, in spec within ±10% of the nominal CD.
var (
	PWDefocusNM = []float64{0, 10, 20, 30, 40, 50, 60, 80}
	PWDoses     = []float64{0.92, 0.96, 1.0, 1.04, 1.08}
)

// PWExhibit is one mask's process window: the gauge CD at every point of
// the sweep, defocus-major in PWDefocusNM × PWDoses order.
type PWExhibit struct {
	Title  string
	Gauge  litho.Gauge
	Points []litho.PWPoint
}

// ProcessWindow sweeps the dose–defocus matrix of case ci on its target
// (no OPC) and on the CircleOpt mask Table 2 scores (memoized), measuring
// the CD at the case's first auto gauge: the analysis behind the
// circular-writer paper's "best depth of focus with less shot count".
func (r *Runner) ProcessWindow(ci int) ([]*PWExhibit, error) {
	l := r.Suite[ci]
	gauges := metrics.AutoGauges(l, r.Sim.N, 100)
	if len(gauges) == 0 {
		return nil, fmt.Errorf("%s has no gaugeable feature", l.Name)
	}
	pw := litho.PWConfig{DefocusNM: PWDefocusNM, Doses: PWDoses, Gauge: gauges[0], Tolerance: 0.10}
	_, co := r.RunCircleOpt(ci, r.Opt.SampleDistNM, r.Opt.Gamma)
	var out []*PWExhibit
	for _, m := range []struct {
		title string
		mask  *grid.Real
	}{
		{l.Name + ", target (no OPC)", r.Targets[ci]},
		{fmt.Sprintf("%s, CircleOpt (%d shots)", l.Name, len(co.Shots)), co.Mask},
	} {
		points, err := litho.ProcessWindow(r.Sim.Cfg, r.Sim.N, m.mask, pw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.title, err)
		}
		out = append(out, &PWExhibit{Title: "Process window: " + m.title, Gauge: pw.Gauge, Points: points})
	}
	return out, nil
}

// Format renders the CD matrix, a row per defocus and a column per dose
// (* = in spec), and the two depths of focus.
func (p *PWExhibit) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nCD (nm) at gauge row %d; * = within ±10%% of nominal\n%10s", p.Title, p.Gauge.Y, "defocus\\dose")
	for _, d := range PWDoses {
		fmt.Fprintf(&b, "%9.2f", d)
	}
	for i, pt := range p.Points {
		if i%len(PWDoses) == 0 {
			fmt.Fprintf(&b, "\n%10.0f", pt.DefocusNM)
		}
		mark := " "
		if pt.InSpec {
			mark = "*"
		}
		fmt.Fprintf(&b, "%8.0f%s", pt.CDnm, mark)
	}
	fmt.Fprintf(&b, "\ndepth of focus (all doses in spec):  %.0f nm\n", litho.DepthOfFocus(p.Points, 1.0))
	fmt.Fprintf(&b, "depth of focus (60%% dose latitude): %.0f nm\n", litho.DepthOfFocus(p.Points, 0.6))
	return b.String()
}
