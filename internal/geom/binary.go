// Package geom supplies the raster geometry algorithms the fracturing and
// rule-based packages are built on: connected-component labeling, binary
// morphology, Zhang–Suen skeletonization, exact Euclidean distance
// transforms, and minimum rectangle partition of rectilinear regions via
// concave-chord bipartite matching.
//
// All algorithms operate on binary masks represented as *grid.Real with
// values 0 and 1 (anything > 0.5 counts as foreground).
package geom

import (
	"cfaopc/internal/grid"
)

// Pt is an integer pixel coordinate.
type Pt struct{ X, Y int }

// fg reports whether (x, y) is a foreground pixel, treating out-of-bounds
// as background.
func fg(m *grid.Real, x, y int) bool {
	return x >= 0 && x < m.W && y >= 0 && y < m.H && m.Data[y*m.W+x] > 0.5
}

// Labels holds the result of connected-component labeling: Label[i] is the
// 1-based component id of pixel i (0 for background), N the number of
// components and Bounds[id] the tight bounding box of component id
// (Bounds[0] is unused), found in the same pass.
type Labels struct {
	W, H   int
	Label  []int32
	N      int
	Bounds []Rect
}

// Components labels the foreground of m into connected regions, numbered
// in row-major order of their first pixel. With eightConn true, diagonal
// neighbours connect (the convention CircleRule uses, matching skeleton
// 8-neighbourhoods); otherwise 4-connectivity.
func Components(m *grid.Real, eightConn bool) *Labels {
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

// Areas returns the pixel count of every component in one pass over the
// labels: Areas()[id] for id 1..N, and the background count at index 0.
func (l *Labels) Areas() []int {
	a := make([]int, l.N+1)
	for _, v := range l.Label {
		a[v]++
	}
	return a
}

// DiskElement returns the offsets of a discrete disk of the given radius,
// the structuring element used by circle-aware morphology.
func DiskElement(radius int) []Pt {
	var pts []Pt
	r2 := radius * radius
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy <= r2 {
				pts = append(pts, Pt{dx, dy})
			}
		}
	}
	return pts
}

// Dilate returns m dilated by the structuring element.
func Dilate(m *grid.Real, elem []Pt) *grid.Real {
	out := grid.NewReal(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.Data[y*m.W+x] <= 0.5 {
				continue
			}
			for _, d := range elem {
				nx, ny := x+d.X, y+d.Y
				if nx >= 0 && nx < m.W && ny >= 0 && ny < m.H {
					out.Data[ny*m.W+nx] = 1
				}
			}
		}
	}
	return out
}

// Erode returns m eroded by the structuring element (pixels whose whole
// element neighbourhood is foreground; the border acts as background).
func Erode(m *grid.Real, elem []Pt) *grid.Real {
	out := grid.NewReal(m.W, m.H)
	for y := 0; y < m.H; y++ {
	pixel:
		for x := 0; x < m.W; x++ {
			for _, d := range elem {
				if !fg(m, x+d.X, y+d.Y) {
					continue pixel
				}
			}
			out.Data[y*m.W+x] = 1
		}
	}
	return out
}

// RemoveCheckerboards rewrites m in place so that no 2×2 neighbourhood has
// the two-diagonal pattern (non-manifold corners), by filling one cell.
// Rectilinear partition requires manifold region boundaries.
func RemoveCheckerboards(m *grid.Real) {
	for changed := true; changed; {
		changed = false
		for y := 0; y+1 < m.H; y++ {
			for x := 0; x+1 < m.W; x++ {
				a := m.Data[y*m.W+x] > 0.5
				b := m.Data[y*m.W+x+1] > 0.5
				c := m.Data[(y+1)*m.W+x] > 0.5
				d := m.Data[(y+1)*m.W+x+1] > 0.5
				if a == d && b == c && a != b {
					// Fill the top-left background cell of the pair.
					if a {
						m.Data[y*m.W+x+1] = 1
					} else {
						m.Data[y*m.W+x] = 1
					}
					changed = true
				}
			}
		}
	}
}
