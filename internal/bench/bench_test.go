package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cfaopc/internal/litho"
)

// lightRunner runs one small case with few iterations; the point of these
// tests is harness correctness, not mask quality.
func lightRunner(t testing.TB) *Runner {
	t.Helper()
	o := DefaultOptions()
	o.Cases = []int{4} // smallest-area case
	o.BaselineIters = 5
	o.CircleOptIters = 6
	o.InitIters = 3
	o.KOpt = 3
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRunnerValidation(t *testing.T) {
	o := DefaultOptions()
	o.GridN = 0
	if _, err := NewRunner(o); err == nil {
		t.Error("expected error for zero grid")
	}
	o = DefaultOptions()
	o.Cases = []int{99}
	if _, err := NewRunner(o); err == nil {
		t.Error("expected error for out-of-range case")
	}
}

func TestRunnerPipelines(t *testing.T) {
	r := lightRunner(t)

	rect := r.RunRect("MultiILT", 0)
	if rect.Shots <= 0 {
		t.Fatal("rect fracturing produced no shots")
	}
	rule, shots := r.RunCircleRule("MultiILT", 0, 32)
	if rule.Shots != len(shots) || rule.Shots == 0 {
		t.Fatalf("CircleRule shots inconsistent: %d vs %d", rule.Shots, len(shots))
	}
	if rule.Shots >= rect.Shots {
		t.Fatalf("circular fracturing (%d) not cheaper than rect (%d)", rule.Shots, rect.Shots)
	}
	opt, res := r.RunCircleOpt(0, 32, 3)
	if opt.Shots != len(res.Shots) {
		t.Fatal("CircleOpt shot count inconsistent")
	}
	// Memoization: a second call must not re-run (same pointer result).
	_, res2 := r.RunCircleOpt(0, 32, 3)
	if res != res2 {
		t.Fatal("CircleOpt result not memoized")
	}
}

func TestTableFormatting(t *testing.T) {
	r := lightRunner(t)
	t1 := r.Table1()
	if len(t1.Rows) != 6 { // 3 baselines × (raw + CircleRule)
		t.Fatalf("Table1 has %d rows", len(t1.Rows))
	}
	text := t1.Format()
	for _, want := range []string{"DevelSet", "MultiILT+CircleRule", "#Shot"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table1 text missing %q:\n%s", want, text)
		}
	}

	t2 := r.Table2()
	if len(t2.Rows) != 2 { // 1 case + average
		t.Fatalf("Table2 has %d rows", len(t2.Rows))
	}
	if t2.Rows[0][0] != "case4" || t2.Rows[1][0] != "Average" {
		t.Fatalf("Table2 row labels: %v, %v", t2.Rows[0][0], t2.Rows[1][0])
	}

	t3 := r.Table3()
	if len(t3.Rows) != 2 {
		t.Fatalf("Table3 has %d rows", len(t3.Rows))
	}
	if !strings.Contains(t3.Format(), "w/o Sparsity") {
		t.Error("Table3 missing ablation row")
	}
}

func TestFigure7Shapes(t *testing.T) {
	r := lightRunner(t)
	shot, quality, epe := r.Figure7()
	if len(shot.Series) != 3 || len(quality.Series) != 2 || len(epe.Series) != 2 {
		t.Fatalf("series counts: %d/%d/%d", len(shot.Series), len(quality.Series), len(epe.Series))
	}
	for _, s := range shot.Series {
		if len(s.X) != len(Figure7SampleDistances) {
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
	}
	// Shot count must not increase with sample distance for CircleRule.
	rule := shot.Series[0]
	for i := 1; i < len(rule.Y); i++ {
		if rule.Y[i] > rule.Y[i-1]+1e-9 {
			t.Errorf("CircleRule shots increased with m: %v", rule.Y)
		}
	}
	if !strings.Contains(shot.Format(), "CircleOpt") {
		t.Error("figure text missing series label")
	}
}

func TestFigure1Table(t *testing.T) {
	r := lightRunner(t)
	f1 := r.Figure1()
	if len(f1.Rows) != 3 {
		t.Fatalf("Figure1 has %d rows", len(f1.Rows))
	}
	if !strings.Contains(f1.Format(), "Reduction") {
		t.Error("Figure1 missing header")
	}
}

// TestScalingIsFigure1PerGrid: each grid's row of the scaling exhibit is
// Figure 1's DevelSet row of a runner built at that grid.
func TestScalingIsFigure1PerGrid(t *testing.T) {
	r := lightRunner(t)
	grids := []int{128, 256}
	tab, err := r.Scaling(grids)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(grids) {
		t.Fatalf("scaling has %d rows, want %d", len(tab.Rows), len(grids))
	}
	for i, n := range grids {
		o := r.Opt
		o.GridN = n
		g, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		fig := g.Figure1().Rows[0] // DevelSet; one case, so the average is its count
		row := tab.Rows[i]
		for col, want := range map[int]string{3: fig[1], 4: fig[2]} {
			got, _ := strconv.ParseFloat(row[col], 64)
			if w, _ := strconv.ParseFloat(want, 64); row[1] != fmt.Sprint(n) || got != w {
				t.Errorf("grid %d: scaling row %v, Figure 1 DevelSet row %v", n, row, fig)
			}
		}
	}
}

// TestProcessWindowOnMemoizedCircleOpt: the exhibit sweeps the 8 × 5
// dose–defocus matrix on the target and on the very CircleOpt mask Table 2
// scores, not a CircleOpt of its own.
func TestProcessWindowOnMemoizedCircleOpt(t *testing.T) {
	r := lightRunner(t)
	_, co := r.RunCircleOpt(0, r.Opt.SampleDistNM, r.Opt.Gamma)
	pws, err := r.ProcessWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pws) != 2 || !strings.Contains(pws[0].Title, "target") ||
		!strings.Contains(pws[1].Title, fmt.Sprintf("CircleOpt (%d shots)", len(co.Shots))) {
		t.Fatalf("exhibits: %q, want the target and the %d-shot CircleOpt mask", []string{pws[0].Title, pws[1].Title}, len(co.Shots))
	}
	got := pws[1]
	if len(got.Points) != len(PWDefocusNM)*len(PWDoses) {
		t.Fatalf("%d points, want %d", len(got.Points), len(PWDefocusNM)*len(PWDoses))
	}
	for i, p := range got.Points {
		if p.DefocusNM != PWDefocusNM[i/len(PWDoses)] || p.Dose != PWDoses[i%len(PWDoses)] {
			t.Fatalf("point %d is %+v, out of defocus-major order", i, p)
		}
	}
	want, err := litho.ProcessWindow(r.Sim.Cfg, r.Sim.N, co.Mask, litho.PWConfig{
		DefocusNM: PWDefocusNM, Doses: PWDoses, Gauge: got.Gauge, Tolerance: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want) {
		t.Errorf("the exhibit's matrix is not the memoized mask's")
	}
	text := got.Format()
	if n := strings.Count(text, "\n"); n != 3+len(PWDefocusNM)+2 || !strings.Contains(text, "60% dose latitude") {
		t.Errorf("format (%d lines):\n%s", n, text)
	}
}

func TestRenderCaseWritesPNGs(t *testing.T) {
	r := lightRunner(t)
	dir := t.TempDir()
	files, err := r.RenderCase(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("rendered %d files", len(files))
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
		if filepath.Ext(f) != ".png" {
			t.Fatalf("unexpected extension %s", f)
		}
	}
}
