package cfaopc_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// archive is a paperbench log parsed into its exhibits: table rows by
// first column, Figure 7 series by name. A table or figure is keyed by its
// number, an extension or ablation (extensions_512.txt) by its whole
// title line.
type archive struct {
	tables map[string]map[string][]float64 // "Table 1" → row label → numeric cells
	series map[string]map[string][]float64 // "Figure 7a" → series → y values in m order
}

var (
	exhibitRe = regexp.MustCompile(`^(?:(Table \d|Figure \d[a-c]?):|((?:Extension|Ablation): .+?)\s*$)`)
	columnsRe = regexp.MustCompile(`\s{2,}`)
	pointRe   = regexp.MustCompile(`\(\s*[\d.]+,\s*([\d.]+)\)`)
)

func readArchive(t *testing.T) *archive { return readArchiveFile(t, "experiments_512.txt") }

func readArchiveFile(t *testing.T, name string) *archive {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	a := &archive{tables: map[string]map[string][]float64{}, series: map[string]map[string][]float64{}}
	exhibit := ""
	for _, line := range strings.Split(string(data), "\n") {
		if m := exhibitRe.FindStringSubmatch(line); m != nil {
			exhibit = m[1] + m[2]
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
			if v, err := strconv.ParseFloat(strings.TrimRight(c, "x%"), 64); err == nil {
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

// TestArchivedExtensionsSayWhatExperimentsMdSays does the same for
// extensions_512.txt, the `paperbench -ablations -extensions` log
// EXPERIMENTS.md quotes for everything beyond the paper: the two archives
// came from one tree, so the rows they share are equal, and each verdict
// that document draws — shot compaction removed for saving next to
// nothing, DoseOpt (since removed: no output carries a dose) and
// GreedyCircles each a trade and not a win — is the archived numbers'
// verdict.
func TestArchivedExtensionsSayWhatExperimentsMdSays(t *testing.T) {
	paper, a := readArchive(t), readArchiveFile(t, "extensions_512.txt")
	const l2, pvb, epe, shot = 0, 1, 2, 3
	const doseT = "Extension: dose-modulated circular writing (DoseOpt) vs CircleOpt"
	const greedyT = "Extension: greedy set-cover fracturing vs CircleRule (MultiILT masks)"
	const compactT = "Extension: union-preserving shot compaction"

	co, cr := a.row(t, doseT, "CircleOpt", 4), a.row(t, greedyT, "CircleRule", 4)
	for i := range co {
		if want := paper.row(t, "Table 3", "CircleOpt", 4)[i]; co[i] != want {
			t.Errorf("CircleOpt cell %d: %.1f in extensions_512.txt, %.1f in experiments_512.txt", i, co[i], want)
		}
		if want := paper.row(t, "Table 1", "MultiILT+CircleRule", 4)[i]; cr[i] != want {
			t.Errorf("MultiILT+CircleRule cell %d: %.1f in extensions_512.txt, %.1f in experiments_512.txt", i, cr[i], want)
		}
	}

	// Removed: compaction takes under 2% off any shot list and under 0.5%
	// off CircleOpt's.
	for _, src := range []string{"DevelSet+CircleRule", "NeuralILT+CircleRule", "MultiILT+CircleRule", "CircleOpt"} {
		r := a.row(t, compactT, src, 3)
		if saved := r[2]; saved >= 2 || src == "CircleOpt" && saved >= 0.5 || r[1] > r[0] {
			t.Errorf("compaction on %s: %.1f → %.1f shots (%.1f%%); EXPERIMENTS.md removed it for saving less", src, r[0], r[1], saved)
		}
	}

	// Each a trade: DoseOpt bought L2 with shots and EPE, on a
	// dose-weighted mask no output of this system can describe (removed);
	// greedy set cover buys shots, L2 and EPE at CircleRule's PVB.
	do, gr := a.row(t, doseT, "DoseOpt", 4), a.row(t, greedyT, "GreedyCircles", 4)
	if !(do[l2] < 0.85*co[l2] && do[shot] > co[shot] && do[epe] > 2*co[epe]) {
		t.Errorf("DoseOpt %v against CircleOpt %v is no longer lower L2 for more shots and twice the EPE", do, co)
	}
	if d := gr[pvb]/cr[pvb] - 1; !(gr[shot] < 0.9*cr[shot] && gr[l2] < 0.9*cr[l2] && gr[epe] < cr[epe] && d < 0.02 && d > -0.02) {
		t.Errorf("GreedyCircles %v against CircleRule %v is no longer fewer shots and lower L2 and EPE at equal PVB", gr, cr)
	}

	// The ablations: coverage repair costs shots and buys L2 and EPE;
	// more optimization kernels buy L2 with shots.
	with := a.row(t, "Ablation: CircleRule coverage repair (on MultiILT masks)", "CircleRule (with repair)", 4)
	bare := a.row(t, "Ablation: CircleRule coverage repair (on MultiILT masks)", "CircleRule (skeleton only)", 4)
	if !(with[shot] > bare[shot] && with[l2] < bare[l2] && with[epe] < bare[epe]) {
		t.Errorf("coverage repair %v against skeleton only %v", with, bare)
	}
	const kT = "Ablation: SOCS kernels used during optimization"
	k2, k5, k9 := a.row(t, kT, "2", 4), a.row(t, kT, "5", 4), a.row(t, kT, "9", 4)
	if !(k2[l2] > k5[l2] && k5[l2] > k9[l2] && k2[shot] < k5[shot] && k5[shot] < k9[shot]) {
		t.Errorf("K_opt ablation: L2 %v/%v/%v, shots %v/%v/%v", k2[l2], k5[l2], k9[l2], k2[shot], k5[shot], k9[shot])
	}
}
