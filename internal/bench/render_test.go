package bench

import (
	"os"
	"path/filepath"
	"testing"

	"cfaopc/internal/grid"
)

func TestGridPNGWritesFile(t *testing.T) {
	g := grid.NewReal(8, 8)
	g.Set(3, 3, 2.0)
	g.Set(4, 4, -1.0)
	path := filepath.Join(t.TempDir(), "x.png")
	if err := grid.GridPNG(g, path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("png missing or empty: %v", err)
	}
}

func TestGridPNGZeroGrid(t *testing.T) {
	// All-zero grids must not divide by zero.
	path := filepath.Join(t.TempDir(), "zero.png")
	if err := grid.GridPNG(grid.NewReal(4, 4), path); err != nil {
		t.Fatal(err)
	}
}

func TestGridPNGBadPath(t *testing.T) {
	g := grid.NewReal(4, 4)
	if err := grid.GridPNG(g, filepath.Join(t.TempDir(), "missing", "x.png")); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxxx", "y"}, {"z", "wwwwwwww"}},
	}
	out := tab.Format()
	lines := splitLines(out)
	if len(lines) < 4 {
		t.Fatalf("format lines: %d", len(lines))
	}
	// All data rows should be at least as wide as the widest cell content.
	for _, l := range lines[2:] {
		if len(l) > 0 && len(l) < len("xxxxxx") {
			t.Fatalf("row %q too narrow", l)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func TestFigureFormat(t *testing.T) {
	f := &Figure{
		Title:  "fig",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{{Label: "s1", X: []float64{1, 2}, Y: []float64{3.5, 4.5}}},
	}
	out := f.Format()
	for _, want := range []string{"fig", "s1", "(1, 3.5)", "(2, 4.5)"} {
		if !contains(out, want) {
			t.Fatalf("figure text missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
