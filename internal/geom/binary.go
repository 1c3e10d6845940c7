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
// (Bounds[0] is unused), found in the same pass. A Labels can be
// relabelled any number of times; it keeps its buffers between masks.
type Labels struct {
	W, H   int
	Label  []int32
	N      int
	Bounds []Rect
	runs   []labelRun
}

// labelRun is one maximal horizontal stretch of foreground, pixels
// [x0, x1) of row y. parent links it to an earlier run of its component
// (itself when it is the component's first run), id is its label.
type labelRun struct{ x0, x1, y, parent, id int32 }

// Components labels the foreground of m into connected regions, numbered
// in row-major order of their first pixel. With eightConn true, diagonal
// neighbours connect (the convention CircleRule uses, matching skeleton
// 8-neighbourhoods); otherwise 4-connectivity.
func Components(m *grid.Real, eightConn bool) *Labels {
	l := new(Labels)
	l.Relabel(m, eightConn)
	return l
}

// Relabel replaces l with the labelling of m, as Components returns it.
// It works on runs, not pixels: one scan finds each row's foreground
// runs and unions every run with the runs it touches in the row above,
// always under the earlier of the two roots; a second pass over the
// runs numbers the roots as they come — a component's root is its first
// run, so that is row-major order of first pixels — and paints labels
// and bounds.
func (l *Labels) Relabel(m *grid.Real, eightConn bool) {
	w, h := m.W, m.H
	l.W, l.H, l.N = w, h, 0
	if cap(l.Label) < w*h {
		l.Label = make([]int32, w*h)
	}
	l.Label = l.Label[:w*h]
	clear(l.Label)
	l.Bounds = append(l.Bounds[:0], Rect{})
	reach := int32(0) // how far past its ends a run touches the row above
	if eightConn {
		reach = 1
	}
	runs := l.runs[:0]
	prev, prevEnd := 0, 0 // the row above is runs[prev:prevEnd]
	for y := 0; y < h; y++ {
		row := m.Data[y*w : y*w+w]
		rowStart := len(runs)
		for x := 0; x < w; x++ {
			if !(row[x] > 0.5) { // NaN is background, as in fg
				continue
			}
			x0 := x
			for x++; x < w && row[x] > 0.5; x++ {
			}
			i := int32(len(runs))
			runs = append(runs, labelRun{x0: int32(x0), x1: int32(x), y: int32(y), parent: i})
			for prev < prevEnd && runs[prev].x1+reach <= int32(x0) {
				prev++ // wholly left of this run, and of every later one
			}
			for q := prev; q < prevEnd && runs[q].x0 < int32(x)+reach; q++ {
				// runs[i].parent is a root at every step: link the later
				// of the two roots under the earlier.
				a, b := rootRun(runs, int32(q)), runs[i].parent
				runs[max(a, b)].parent = min(a, b)
				runs[i].parent = min(a, b)
			}
		}
		prev, prevEnd = rowStart, len(runs)
	}
	for i := range runs {
		r := &runs[i]
		// Links point backwards and every earlier run already points
		// at its root, so the root is at most two steps away.
		r.parent = runs[r.parent].parent
		x, y, x1 := int(r.x0), int(r.y), int(r.x1)
		if int(r.parent) == i {
			l.N++
			r.id = int32(l.N)
			l.Bounds = append(l.Bounds, Rect{X: x, Y: y, W: x1 - x, H: 1})
		} else {
			r.id = runs[r.parent].id
			b := &l.Bounds[r.id]
			right := max(b.X+b.W, x1)
			b.X = min(b.X, x)
			b.W, b.H = right-b.X, y-b.Y+1
		}
		seg := l.Label[y*w+x : y*w+x1]
		for j := range seg {
			seg[j] = r.id
		}
	}
	l.runs = runs
}

// rootRun follows parent links to the first run of i's component,
// halving the path as it goes.
func rootRun(runs []labelRun, i int32) int32 {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
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
