package layout

import (
	"strings"
	"testing"
)

func TestGenerateArrayValidAndDeterministic(t *testing.T) {
	a, err := GenerateArray(4, 6, ArrayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateArray(4, 6, ArrayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Name != "array4x6" {
		t.Fatalf("name %q", a.Name)
	}
	if len(a.Rects) != 4*6*2 {
		t.Fatalf("got %d rects, want %d", len(a.Rects), 4*6*2)
	}
	if len(a.Rects) != len(b.Rects) {
		t.Fatalf("non-deterministic rect count")
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("rect %d differs between identical calls", i)
		}
	}
}

func TestGenerateArrayCellsPixelIdentical(t *testing.T) {
	// The whole point of the array mode: every cell window rasterizes to
	// the same bytes, so the dedup cache gets R·C−1 hits.
	const n, rows, cols = 256, 8, 8
	l, err := GenerateArray(rows, cols, ArrayConfig{TileNM: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewWindowIndex(l, n)
	const core, halo = 32, 8
	win := core + 2*halo
	ref, occ := ix.Window(-halo, -halo, win, win)
	if !occ {
		t.Fatal("reference cell window unoccupied")
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m, occ := ix.Window(c*core-halo, r*core-halo, win, win)
			if !occ {
				t.Fatalf("cell (%d,%d) unoccupied", r, c)
			}
			for i := range m.Data {
				if m.Data[i] != ref.Data[i] {
					t.Fatalf("cell (%d,%d) pixel %d differs from reference", r, c, i)
				}
			}
		}
	}
}

func TestGenerateArraySkipsOverhangingCells(t *testing.T) {
	// A pitch that doesn't divide the tile drops the cells that would
	// overhang instead of producing an invalid layout.
	l, err := GenerateArray(3, 3, ArrayConfig{TileNM: 1000, PitchXNM: 400, PitchYNM: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l.Rects) >= 3*3*2 {
		t.Fatalf("expected overhanging cells to be dropped, got %d rects", len(l.Rects))
	}
	if len(l.Rects) == 0 {
		t.Fatal("no rects placed at all")
	}
}

// TestGenerateArrayRejectsDegenerate: a non-positive array, tile, pitch
// or motif size is an error naming the array, never a panic, and it is
// found before any cell is placed — so a huge array on a small tile
// fails at once instead of allocating first.
func TestGenerateArrayRejectsDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		cfg        ArrayConfig
		want       string
	}{
		{"zero rows", 0, 4, ArrayConfig{}, "invalid array 0x4"},
		{"3 nm pitch", 600, 600, ArrayConfig{}, "motif rect 0 is 1x0 nm at a 3x3 nm pitch"},
		{"2 nm pitch", 8, 8, ArrayConfig{TileNM: 16}, "motif rect 0 is 1x0 nm"},
		{"negative tile", 4, 4, ArrayConfig{TileNM: -8}, "non-positive tile -8 nm"},
		{"negative pitch", 4, 4, ArrayConfig{PitchXNM: -4}, "pitch -4x512 nm"},
		{"zero motif bar", 4, 4, ArrayConfig{CellRects: []Rect{{X: 1, Y: 1, W: 8, H: 0}}}, "motif rect 0 is 8x0 nm"},
		{"huge array", 1 << 20, 1 << 20, ArrayConfig{}, "pitch 0x0 nm"},
	} {
		l, err := GenerateArray(tc.rows, tc.cols, tc.cfg)
		if err == nil || l != nil {
			t.Errorf("%s: got %v, err %v; want an error", tc.name, l, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
