package geom

import (
	"image"
	"math/rand"
	"reflect"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

// mk builds a binary grid from string rows ('#' = foreground).
func mk(rows ...string) *grid.Real {
	h := len(rows)
	w := len(rows[0])
	m := grid.NewReal(w, h)
	for y, r := range rows {
		for x, c := range r {
			if c == '#' {
				m.Set(x, y, 1)
			}
		}
	}
	return m
}

func TestComponentsFourVsEight(t *testing.T) {
	m := mk(
		"#..",
		".#.",
		"..#",
	)
	if l := Components(m, false); l.N != 3 {
		t.Fatalf("4-conn components = %d, want 3", l.N)
	}
	if l := Components(m, true); l.N != 1 {
		t.Fatalf("8-conn components = %d, want 1", l.N)
	}
}

func TestComponentsAreasAndBounds(t *testing.T) {
	m := mk(
		"##..#",
		"##..#",
		".....",
		"###..",
	)
	l := Components(m, false)
	if l.N != 3 {
		t.Fatalf("components = %d, want 3", l.N)
	}
	areas := l.Areas()
	if want := []int{11, 4, 2, 3}; !reflect.DeepEqual(areas, want) {
		t.Fatalf("areas = %v, want %v (background first, then row-major ids)", areas, want)
	}
	if want := []Rect{{}, {0, 0, 2, 2}, {4, 0, 1, 2}, {0, 3, 3, 1}}; !reflect.DeepEqual(l.Bounds, want) {
		t.Fatalf("bounds = %v, want %v", l.Bounds, want)
	}
}

// The bounding box of every component is tight: it holds all of the
// component's pixels and each of its four edges holds at least one.
func TestComponentsBoundsAreTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := grid.NewReal(30, 20)
		for i := range m.Data {
			if rng.Intn(3) == 0 {
				m.Data[i] = 1
			}
		}
		l := Components(m, trial%2 == 0)
		if len(l.Bounds) != l.N+1 {
			t.Fatalf("len(Bounds) = %d for %d components", len(l.Bounds), l.N)
		}
		for id := 1; id <= l.N; id++ {
			x0, x1, y0, y1 := m.W, -1, m.H, -1
			for i, v := range l.Label {
				if int(v) == id {
					x0, x1 = min(x0, i%m.W), max(x1, i%m.W)
					y0, y1 = min(y0, i/m.W), max(y1, i/m.W)
				}
			}
			if want := (Rect{x0, y0, x1 - x0 + 1, y1 - y0 + 1}); l.Bounds[id] != want {
				t.Fatalf("trial %d component %d: bounds %v, want %v", trial, id, l.Bounds[id], want)
			}
		}
	}
}

func TestComponentsEmpty(t *testing.T) {
	if l := Components(grid.NewReal(4, 4), true); l.N != 0 {
		t.Fatalf("empty mask has %d components", l.N)
	}
}

func TestDiskElement(t *testing.T) {
	d0 := gridkit.DiskElement(0)
	if len(d0) != 1 || d0[0] != (image.Point{0, 0}) {
		t.Fatalf("disk(0) = %v", d0)
	}
	d1 := gridkit.DiskElement(1)
	if len(d1) != 5 { // center + 4 axis neighbours
		t.Fatalf("disk(1) has %d points, want 5", len(d1))
	}
	// Disk is symmetric under (x,y) → (-x,-y).
	set := map[image.Point]bool{}
	for _, p := range gridkit.DiskElement(3) {
		set[p] = true
	}
	for p := range set {
		if !set[image.Point{-p.X, -p.Y}] {
			t.Fatalf("disk not symmetric at %v", p)
		}
	}
}

func TestDilateErodeBasics(t *testing.T) {
	m := mk(
		".....",
		".....",
		"..#..",
		".....",
		".....",
	)
	d := gridkit.Dilate(m, gridkit.DiskElement(1))
	if int(gridkit.Sum(d)) != 5 {
		t.Fatalf("dilated area = %v, want 5", gridkit.Sum(d))
	}
	e := gridkit.Erode(d, gridkit.DiskElement(1))
	if int(gridkit.Sum(e)) != 1 || e.At(2, 2) != 1 {
		t.Fatalf("erode(dilate) != original point: %v", e.Data)
	}
}

func TestErodeBorderActsAsBackground(t *testing.T) {
	m := grid.NewReal(3, 3)
	gridkit.Fill(m, 1)
	e := gridkit.Erode(m, gridkit.DiskElement(1))
	if int(gridkit.Sum(e)) != 1 || e.At(1, 1) != 1 {
		t.Fatalf("erosion of full grid should leave center only, got %v", e.Data)
	}
}

// Property: dilation is extensive (m ⊆ dilate(m)), erosion anti-extensive.
func TestMorphologyExtensivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := grid.NewReal(16, 16)
		for i := range m.Data {
			if rng.Float64() < 0.3 {
				m.Data[i] = 1
			}
		}
		d := gridkit.Dilate(m, gridkit.DiskElement(2))
		e := gridkit.Erode(m, gridkit.DiskElement(2))
		for i := range m.Data {
			if m.Data[i] == 1 && d.Data[i] != 1 {
				t.Fatal("dilation not extensive")
			}
			if e.Data[i] == 1 && m.Data[i] != 1 {
				t.Fatal("erosion not anti-extensive")
			}
		}
	}
}

func TestRemoveCheckerboards(t *testing.T) {
	m := mk(
		"#.",
		".#",
	)
	RemoveCheckerboards(m)
	// No 2×2 checkerboard may remain.
	for y := 0; y+1 < m.H; y++ {
		for x := 0; x+1 < m.W; x++ {
			a := m.At(x, y) > 0.5
			b := m.At(x+1, y) > 0.5
			c := m.At(x, y+1) > 0.5
			d := m.At(x+1, y+1) > 0.5
			if a == d && b == c && a != b {
				t.Fatal("checkerboard pattern remains")
			}
		}
	}
	if gridkit.Sum(m) < 2 {
		t.Fatal("RemoveCheckerboards deleted foreground instead of filling")
	}
}
