package geom

import (
	"math/rand"
	"slices"
	"testing"

	"cfaopc/internal/grid"
)

// refComponents is the labelling Components replaced, kept as its oracle:
// a flood fill from every unlabelled foreground pixel in row-major order.
func refComponents(m *grid.Real, eightConn bool) *Labels {
	w, h := m.W, m.H
	l := &Labels{W: w, H: h, Label: make([]int32, w*h), Bounds: make([]Rect, 1)}
	neigh := [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	nn := 4
	if eightConn {
		nn = 8
	}
	var stack []int32
	for start, v := range m.Data {
		if v <= 0.5 || l.Label[start] != 0 {
			continue
		}
		l.N++
		id := int32(l.N)
		x0, x1, y0, y1 := w, -1, h, -1
		stack = append(stack[:0], int32(start))
		l.Label[start] = id
		for len(stack) > 0 {
			cur := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			cx, cy := cur%w, cur/w
			x0, x1 = min(x0, cx), max(x1, cx)
			y0, y1 = min(y0, cy), max(y1, cy)
			for _, d := range neigh[:nn] {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := ny*w + nx
				if m.Data[ni] > 0.5 && l.Label[ni] == 0 {
					l.Label[ni] = id
					stack = append(stack, int32(ni))
				}
			}
		}
		l.Bounds = append(l.Bounds, Rect{X: x0, Y: y0, W: x1 - x0 + 1, H: y1 - y0 + 1})
	}
	return l
}

func sameLabels(t *testing.T, what string, got, want *Labels) {
	t.Helper()
	if got.W != want.W || got.H != want.H || got.N != want.N {
		t.Fatalf("%s: %dx%d with %d components, want %dx%d with %d", what, got.W, got.H, got.N, want.W, want.H, want.N)
	}
	if !slices.Equal(got.Label, want.Label) {
		t.Fatalf("%s: labels\n%v\nwant\n%v", what, got.Label, want.Label)
	}
	if !slices.Equal(got.Bounds, want.Bounds) {
		t.Fatalf("%s: bounds %v, want %v", what, got.Bounds, want.Bounds)
	}
}

// One Labels relabelled over thousands of random masks — sides growing
// and shrinking from 1 to 40 px, every density from empty to full, both
// connectivities — equals the flood fill on each of them: the same N, the
// same label on every pixel, the same bounds. Nothing of an earlier,
// larger or denser mask may show through.
func TestRelabelMatchesFloodFill(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var l Labels
	for i := 0; i < 4000; i++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		density := float64(i%11) / 10
		m := grid.NewReal(w, h)
		for j := range m.Data {
			if rng.Float64() < density {
				m.Data[j] = 1
			}
		}
		eight := i%2 == 0
		l.Relabel(m, eight)
		sameLabels(t, "relabel", &l, refComponents(m, eight))
		if i%97 == 0 {
			sameLabels(t, "fresh", Components(m, eight), &l)
		}
	}
}

// Shapes whose pieces meet only late in the scan — the merges that make
// a run's first root the wrong one: a U, a W, a spiral, a comb hanging
// from its last row, and a staircase that only diagonals connect.
func TestRelabelLateMerges(t *testing.T) {
	masks := [][]string{
		{"#...#", "#...#", "#####"},
		{"#.#.#.#", "#.#.#.#", "###.###", "...#...", ".#####."},
		{"#######", "......#", "#####.#", "#...#.#", "#.###.#", "#.....#", "#######"},
		{".#.#.#.#", ".#.#.#.#", "########"},
		{"...#", "..#.", ".#..", "#...", ".#..", "..#."},
		{"##.##", ".....", "##.##", "..#.."},
	}
	for _, rows := range masks {
		m := mk(rows...)
		for _, eight := range []bool{false, true} {
			sameLabels(t, rows[0], Components(m, eight), refComponents(m, eight))
		}
	}
}
