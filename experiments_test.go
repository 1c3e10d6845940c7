package cfaopc_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// archive is experiments_512.txt parsed into its exhibits: table rows by
// first column, Figure 7 series by name.
type archive struct {
	tables map[string]map[string][]float64 // "Table 1" → row label → numeric cells
	series map[string]map[string][]float64 // "Figure 7a" → series → y values in m order
}

var (
	exhibitRe = regexp.MustCompile(`^(Table \d|Figure \d[a-c]?):`)
	columnsRe = regexp.MustCompile(`\s{2,}`)
	pointRe   = regexp.MustCompile(`\(\s*[\d.]+,\s*([\d.]+)\)`)
)

func readArchive(t *testing.T) *archive {
	t.Helper()
	data, err := os.ReadFile("experiments_512.txt")
	if err != nil {
		t.Fatal(err)
	}
	a := &archive{tables: map[string]map[string][]float64{}, series: map[string]map[string][]float64{}}
	exhibit := ""
	for _, line := range strings.Split(string(data), "\n") {
		if m := exhibitRe.FindStringSubmatch(line); m != nil {
			exhibit = m[1]
			a.tables[exhibit] = map[string][]float64{}
			a.series[exhibit] = map[string][]float64{}
			continue
		}
		if exhibit == "" || strings.TrimSpace(line) == "" || strings.HasPrefix(line, "---") {
			continue
		}
		if pts := pointRe.FindAllStringSubmatch(line, -1); pts != nil {
			name := strings.TrimSpace(line[:pointRe.FindStringIndex(line)[0]])
			for _, p := range pts {
				v, _ := strconv.ParseFloat(p[1], 64)
				a.series[exhibit][name] = append(a.series[exhibit][name], v)
			}
			continue
		}
		cells := columnsRe.Split(strings.TrimSpace(line), -1)
		var nums []float64
		for _, c := range cells[1:] {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(c, "x"), 64); err == nil {
				nums = append(nums, v)
			}
		}
		if len(nums) > 0 {
			a.tables[exhibit][cells[0]] = nums
		}
	}
	return a
}

func (a *archive) row(t *testing.T, table, label string, cells int) []float64 {
	t.Helper()
	r := a.tables[table][label]
	if len(r) != cells {
		t.Fatalf("%s: row %q has %d numeric cells, want %d", table, label, len(r), cells)
	}
	return r
}

func (a *archive) curve(t *testing.T, figure, name string) []float64 {
	t.Helper()
	c := a.series[figure][name]
	if len(c) != 3 {
		t.Fatalf("%s: series %q has %d points, want 3 (m = 28, 32, 36 nm)", figure, name, len(c))
	}
	return c
}

// TestArchivedExperimentsKeepThePapersOrderings guards the reproduction's
// claim. Absolute numbers in experiments_512.txt are not expected to match
// the paper and move when the numerics do; what EXPERIMENTS.md claims is
// that every ordering and trend the paper reports holds, and this test
// asserts exactly the verdicts that document states in prose, against the
// archived run. A regeneration that flips one fails here instead of
// passing unnoticed into the documentation.
func TestArchivedExperimentsKeepThePapersOrderings(t *testing.T) {
	a := readArchive(t)
	const l2, pvb, epe, shot = 0, 1, 2, 3

	// Table 1 / Figure 1: circular fracturing cuts every engine's shot
	// count against its own pixel mask, at comparable PVB, and pays for it
	// in L2 (and never gains EPE).
	for _, engine := range []string{"DevelSet", "NeuralILT", "MultiILT"} {
		raw := a.row(t, "Table 1", engine, 4)
		cr := a.row(t, "Table 1", engine+"+CircleRule", 4)
		if cr[shot] >= raw[shot] {
			t.Errorf("Table 1: %s+CircleRule needs %.1f shots, its rectangle-fractured source %.1f", engine, cr[shot], raw[shot])
		}
		if d := (cr[pvb] - raw[pvb]) / raw[pvb]; d > 0.15 || d < -0.15 {
			t.Errorf("Table 1: %s PVB moves %+.0f%% under CircleRule; the shot saving is not at comparable PVB", engine, 100*d)
		}
		if cr[l2] <= raw[l2] || cr[epe] < raw[epe] {
			t.Errorf("Table 1: %s+CircleRule L2 %.0f / EPE %.1f against %.0f / %.1f: rule-based fitting should cost accuracy", engine, cr[l2], cr[epe], raw[l2], raw[epe])
		}
		f1 := a.row(t, "Figure 1", engine, 3)
		if f1[0] != raw[shot] || f1[1] != cr[shot] || f1[1] >= f1[0] {
			t.Errorf("Figure 1: %s row %v disagrees with Table 1 (%.1f → %.1f)", engine, f1, raw[shot], cr[shot])
		}
	}

	// Table 2 averages: CircleOpt has the best L2 of the circular
	// pipelines (the paper's headline), an EPE far below the SRAF-bearing
	// ones, and a shot count between DevelSet+CircleRule and them.
	avg := a.row(t, "Table 2", "Average", 16)
	ds, ni, mi, co := avg[0:4], avg[4:8], avg[8:12], avg[12:16]
	for name, p := range map[string][]float64{"DevelSet": ds, "NeuralILT": ni, "MultiILT": mi} {
		if co[l2] >= p[l2] {
			t.Errorf("Table 2: CircleOpt L2 %.1f is not below %s+CircleRule's %.1f", co[l2], name, p[l2])
		}
	}
	if co[epe] >= ni[epe] || co[epe] >= mi[epe] {
		t.Errorf("Table 2: CircleOpt EPE %.1f is not below the SRAF pipelines' (%.1f, %.1f)", co[epe], ni[epe], mi[epe])
	}
	if !(ds[shot] < co[shot] && co[shot] < ni[shot] && co[shot] < mi[shot]) {
		t.Errorf("Table 2: shot ordering DS+CR %.1f < CircleOpt %.1f < NI+CR %.1f, MI+CR %.1f does not hold", ds[shot], co[shot], ni[shot], mi[shot])
	}
	if got := a.row(t, "Table 3", "CircleOpt", 4); got[l2] != co[l2] || got[shot] != co[shot] {
		t.Errorf("Table 3's CircleOpt row %v disagrees with Table 2's average %v", got, co)
	}

	// Table 3: the Lasso term buys shots for a small L2 cost.
	with, without := a.row(t, "Table 3", "CircleOpt", 4), a.row(t, "Table 3", "CircleOpt w/o Sparsity", 4)
	if saved := 1 - with[shot]/without[shot]; saved < 0.05 {
		t.Errorf("Table 3: the sparsity regularizer saves %.1f%% of the shots (%.1f → %.1f), want the paper's ~10%%", 100*saved, without[shot], with[shot])
	}
	if cost := with[l2]/without[l2] - 1; cost > 0.05 {
		t.Errorf("Table 3: the sparsity regularizer costs %.1f%% L2, want the paper's +1.5%%-style cost", 100*cost)
	}

	// Figure 7: shot count falls with the sample distance for CircleRule,
	// CircleOpt stays below it and flatter, the rectangle line is
	// constant; CircleOpt is better on L2+PVB and EPE at every m.
	crShots, coShots := a.curve(t, "Figure 7a", "CircleRule"), a.curve(t, "Figure 7a", "CircleOpt")
	rect := a.curve(t, "Figure 7a", "MultiILT (rect)")
	if !(crShots[0] > crShots[1] && crShots[1] > crShots[2]) {
		t.Errorf("Figure 7a: CircleRule shots %v do not fall with m", crShots)
	}
	if coShots[0] < coShots[2] || coShots[0]-coShots[2] >= crShots[0]-crShots[2] {
		t.Errorf("Figure 7a: CircleOpt %v is not flatter than CircleRule %v", coShots, crShots)
	}
	if rect[0] != rect[1] || rect[1] != rect[2] {
		t.Errorf("Figure 7a: the rectangle baseline %v depends on m", rect)
	}
	for _, fig := range []string{"Figure 7a", "Figure 7b", "Figure 7c"} {
		cr, co := a.curve(t, fig, "CircleRule"), a.curve(t, fig, "CircleOpt")
		for i := range cr {
			if co[i] >= cr[i] {
				t.Errorf("%s: CircleOpt %.1f is not below CircleRule %.1f at point %d", fig, co[i], cr[i], i)
			}
		}
	}
}
