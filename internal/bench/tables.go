package bench

import (
	"fmt"
	"strings"

	"cfaopc/internal/metrics"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned plain text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// avg accumulates metric reports into a mean row.
type avg struct {
	l2, pvb, epe, shots float64
	n                   int
}

func (a *avg) add(r metrics.Report) {
	a.l2 += r.L2
	a.pvb += r.PVB
	a.epe += float64(r.EPE)
	a.shots += float64(r.Shots)
	a.n++
}

func (a *avg) row() []string {
	n := float64(a.n)
	if a.n == 0 {
		n = 1
	}
	return []string{f1(a.l2 / n), f1(a.pvb / n), f1(a.epe / n), f1(a.shots / n)}
}

// report is the mean as a metrics.Report, EPE and shots rounded to the
// nearest count.
func (a *avg) report() metrics.Report {
	n := float64(a.n)
	return metrics.Report{L2: a.l2 / n, PVB: a.pvb / n, EPE: int(a.epe/n + 0.5), Shots: int(a.shots/n + 0.5)}
}

// Table1 reproduces the paper's Table 1: each SOTA pixel engine evaluated
// raw (VSB rectangle shots) and with CircleRule fracturing; averages over
// the selected cases.
func (r *Runner) Table1() *Table {
	t := &Table{
		Title:  "Table 1: CircleRule vs SOTA pixel-based OPC (averages)",
		Header: []string{"Model", "L2", "PVB", "EPE", "#Shot"},
	}
	for _, name := range Baselines {
		raw, ruled := &avg{}, &avg{}
		for ci := range r.Suite {
			raw.add(r.RunRect(name, ci))
			rep, _ := r.RunCircleRule(name, ci, r.Opt.SampleDistNM)
			ruled.add(rep)
		}
		t.Rows = append(t.Rows, append([]string{name}, raw.row()...))
		t.Rows = append(t.Rows, append([]string{name + "+CircleRule"}, ruled.row()...))
	}
	return t
}

// Table2 reproduces the paper's Table 2: per-case printability and
// complexity for the three CircleRule pipelines and CircleOpt, with an
// average row.
func (r *Runner) Table2() *Table {
	t := &Table{
		Title: "Table 2: Mask printability & complexity (DS=DevelSet+CircleRule, NI=NeuralILT+CircleRule, MI=MultiILT+CircleRule, CO=CircleOpt)",
		Header: []string{"Bench", "Area(nm2)",
			"DS+CR:L2", "PVB", "EPE", "#Shot",
			"NI+CR:L2", "PVB", "EPE", "#Shot",
			"MI+CR:L2", "PVB", "EPE", "#Shot",
			"CO:L2", "PVB", "EPE", "#Shot"},
	}
	avgs := make([]*avg, 4)
	for i := range avgs {
		avgs[i] = &avg{}
	}
	for ci, l := range r.Suite {
		row := []string{l.Name, fmt.Sprintf("%d", l.Area())}
		for bi, name := range Baselines {
			rep, _ := r.RunCircleRule(name, ci, r.Opt.SampleDistNM)
			avgs[bi].add(rep)
			row = append(row, f1(rep.L2), f1(rep.PVB), fmt.Sprintf("%d", rep.EPE), fmt.Sprintf("%d", rep.Shots))
		}
		rep, _ := r.RunCircleOpt(ci, r.Opt.SampleDistNM, r.Opt.Gamma)
		avgs[3].add(rep)
		row = append(row, f1(rep.L2), f1(rep.PVB), fmt.Sprintf("%d", rep.EPE), fmt.Sprintf("%d", rep.Shots))
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"Average", ""}
	for _, a := range avgs {
		avgRow = append(avgRow, a.row()...)
	}
	t.Rows = append(t.Rows, avgRow)
	return t
}

// Table3 reproduces the sparsity-regularizer ablation: CircleOpt with and
// without L_s, averaged over the selected cases.
func (r *Runner) Table3() *Table {
	t := &Table{
		Title:  "Table 3: Ablation on the circular sparsity regularizer",
		Header: []string{"Method", "L2", "PVB", "EPE", "#Shot"},
	}
	withOut, with := &avg{}, &avg{}
	for ci := range r.Suite {
		rep0, _ := r.RunCircleOpt(ci, r.Opt.SampleDistNM, 0)
		withOut.add(rep0)
		rep1, _ := r.RunCircleOpt(ci, r.Opt.SampleDistNM, r.Opt.Gamma)
		with.add(rep1)
	}
	t.Rows = append(t.Rows,
		append([]string{"CircleOpt w/o Sparsity"}, withOut.row()...),
		append([]string{"CircleOpt"}, with.row()...))
	return t
}
