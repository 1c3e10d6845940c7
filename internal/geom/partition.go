package geom

import (
	"sort"

	"cfaopc/internal/grid"
)

// Rect is an axis-aligned pixel rectangle: cells [X, X+W) × [Y, Y+H).
type Rect struct{ X, Y, W, H int }

// PartitionRects decomposes the foreground of m into the minimum number of
// non-overlapping axis-aligned rectangles — the classical VSB fracturing
// objective. It implements the optimal algorithm for rectilinear regions
// (with holes): find the concave (reflex) boundary vertices, connect
// co-linear reflex pairs by interior chords, pick a maximum independent set
// of non-crossing chords via Hopcroft–Karp matching and König's theorem,
// draw them as cuts, resolve every remaining reflex vertex with a single
// axis-parallel cut, and read off the resulting rectangles.
//
// Non-manifold (checkerboard) corners are removed first by filling cells,
// so the returned rectangles cover a minimally *augmented* version of m
// when such corners exist; this mirrors mask data prep, which cannot write
// point-touching shapes either.
func PartitionRects(m *grid.Real) []Rect {
	work := m.Binarize(0.5)
	RemoveCheckerboards(work)
	w, h := work.W, work.H

	filled := func(x, y int) bool { return fg(work, x, y) }

	// Reflex lattice vertices: exactly 3 of the 4 incident cells filled.
	type vertex struct{ x, y int }
	var reflex []vertex
	reflexAt := make(map[[2]int]bool)
	for y := 0; y <= h; y++ {
		for x := 0; x <= w; x++ {
			n := 0
			if filled(x-1, y-1) {
				n++
			}
			if filled(x, y-1) {
				n++
			}
			if filled(x-1, y) {
				n++
			}
			if filled(x, y) {
				n++
			}
			if n == 3 {
				reflex = append(reflex, vertex{x, y})
				reflexAt[[2]int{x, y}] = true
			}
		}
	}

	// interiorH reports whether the unit lattice segment (x,y)-(x+1,y) has
	// foreground on both sides; interiorV likewise for (x,y)-(x,y+1).
	interiorH := func(x, y int) bool { return filled(x, y-1) && filled(x, y) }
	interiorV := func(x, y int) bool { return filled(x-1, y) && filled(x, y) }

	// Chords join consecutive co-linear reflex vertices through interior.
	type chord struct{ x1, y1, x2, y2 int }
	var hChords, vChords []chord

	byRow := map[int][]int{}
	for _, v := range reflex {
		byRow[v.y] = append(byRow[v.y], v.x)
	}
	for y, xs := range byRow {
		sort.Ints(xs)
		for i := 0; i+1 < len(xs); i++ {
			x1, x2 := xs[i], xs[i+1]
			ok := true
			for x := x1; x < x2; x++ {
				if !interiorH(x, y) {
					ok = false
					break
				}
			}
			if ok {
				hChords = append(hChords, chord{x1, y, x2, y})
			}
		}
	}
	byCol := map[int][]int{}
	for _, v := range reflex {
		byCol[v.x] = append(byCol[v.x], v.y)
	}
	for x, ys := range byCol {
		sort.Ints(ys)
		for i := 0; i+1 < len(ys); i++ {
			y1, y2 := ys[i], ys[i+1]
			ok := true
			for y := y1; y < y2; y++ {
				if !interiorV(x, y) {
					ok = false
					break
				}
			}
			if ok {
				vChords = append(vChords, chord{x, y1, x, y2})
			}
		}
	}

	// Conflict graph: an H-chord and a V-chord conflict when they share any
	// point (proper crossings and shared endpoints alike).
	adj := make([][]int, len(hChords))
	for i, hc := range hChords {
		for j, vc := range vChords {
			if vc.x1 >= hc.x1 && vc.x1 <= hc.x2 && hc.y1 >= vc.y1 && hc.y1 <= vc.y2 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchL, matchR := MaxBipartiteMatching(len(hChords), len(vChords), adj)
	coverL, coverR := MinVertexCover(len(hChords), len(vChords), adj, matchL, matchR)

	// Cut walls between cells. vWall[y*(w+1)+x] blocks (x-1,y)|(x,y);
	// hWall[y*w+x] blocks (x,y-1)|(x,y).
	vWall := make([]bool, (w+1)*h)
	hWall := make([]bool, w*(h+1))

	resolved := map[[2]int]bool{}
	drawH := func(c chord) {
		for x := c.x1; x < c.x2; x++ {
			hWall[c.y1*w+x] = true
		}
		resolved[[2]int{c.x1, c.y1}] = true
		resolved[[2]int{c.x2, c.y2}] = true
	}
	drawV := func(c chord) {
		for y := c.y1; y < c.y2; y++ {
			vWall[y*(w+1)+c.x1] = true
		}
		resolved[[2]int{c.x1, c.y1}] = true
		resolved[[2]int{c.x2, c.y2}] = true
	}
	for i, c := range hChords {
		if !coverL[i] { // independent set = complement of the cover
			drawH(c)
		}
	}
	for j, c := range vChords {
		if !coverR[j] {
			drawV(c)
		}
	}

	// onCut reports whether an existing cut passes through lattice point
	// (x, y); boundary detection is separate.
	onCut := func(x, y int) bool {
		if x > 0 && hWall[y*w+x-1] {
			return true
		}
		if x < w && hWall[y*w+x] {
			return true
		}
		if y > 0 && vWall[(y-1)*(w+1)+x] {
			return true
		}
		if y < h && vWall[y*(w+1)+x] {
			return true
		}
		return false
	}

	// Resolve leftover reflex vertices with a single vertical cut into the
	// interior; direction is away from the missing cell.
	for _, v := range reflex {
		if resolved[[2]int{v.x, v.y}] {
			continue
		}
		missingTop := !filled(v.x-1, v.y-1) || !filled(v.x, v.y-1)
		// Collect the segments first, testing termination against walls
		// drawn by *other* cuts only, then commit.
		var segs []int
		if missingTop {
			// Cut downward while the segment below stays interior.
			for y := v.y; y < h && interiorV(v.x, y); y++ {
				segs = append(segs, y*(w+1)+v.x)
				if reflexAt[[2]int{v.x, y + 1}] {
					resolved[[2]int{v.x, y + 1}] = true // the cut passes through it
					break
				}
				if onCut(v.x, y+1) {
					break
				}
			}
		} else {
			for y := v.y; y > 0 && interiorV(v.x, y-1); y-- {
				segs = append(segs, (y-1)*(w+1)+v.x)
				if reflexAt[[2]int{v.x, y - 1}] {
					resolved[[2]int{v.x, y - 1}] = true
					break
				}
				if onCut(v.x, y-1) {
					break
				}
			}
		}
		for _, s := range segs {
			vWall[s] = true
		}
	}

	// Flood-fill cells respecting walls; every region is now a rectangle.
	// A band-decomposition fallback guards against degenerate inputs.
	seen := make([]bool, w*h)
	var rects []Rect
	var stack []int
	for start := range work.Data {
		if work.Data[start] <= 0.5 || seen[start] {
			continue
		}
		stack = append(stack[:0], start)
		seen[start] = true
		minX, minY, maxX, maxY := w, h, -1, -1
		count := 0
		var cells []int
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cells = append(cells, cur)
			count++
			cx, cy := cur%w, cur/w
			if cx < minX {
				minX = cx
			}
			if cy < minY {
				minY = cy
			}
			if cx > maxX {
				maxX = cx
			}
			if cy > maxY {
				maxY = cy
			}
			// Right neighbour unless a vertical wall at lattice x=cx+1.
			if cx+1 < w && !vWall[cy*(w+1)+cx+1] && work.Data[cur+1] > 0.5 && !seen[cur+1] {
				seen[cur+1] = true
				stack = append(stack, cur+1)
			}
			if cx > 0 && !vWall[cy*(w+1)+cx] && work.Data[cur-1] > 0.5 && !seen[cur-1] {
				seen[cur-1] = true
				stack = append(stack, cur-1)
			}
			if cy+1 < h && !hWall[(cy+1)*w+cx] && work.Data[cur+w] > 0.5 && !seen[cur+w] {
				seen[cur+w] = true
				stack = append(stack, cur+w)
			}
			if cy > 0 && !hWall[cy*w+cx] && work.Data[cur-w] > 0.5 && !seen[cur-w] {
				seen[cur-w] = true
				stack = append(stack, cur-w)
			}
		}
		rw, rh := maxX-minX+1, maxY-minY+1
		if count == rw*rh {
			rects = append(rects, Rect{X: minX, Y: minY, W: rw, H: rh})
			continue
		}
		// Degenerate region: band-decompose just these cells.
		sub := grid.NewReal(w, h)
		for _, c := range cells {
			sub.Data[c] = 1
		}
		rects = append(rects, DecomposeBands(sub)...)
	}
	return rects
}

// DecomposeBands decomposes the foreground of m into rectangles by merging
// identical maximal horizontal runs across consecutive rows — the greedy
// baseline fracturer (correct but not minimal).
func DecomposeBands(m *grid.Real) []Rect {
	type run struct{ x1, x2 int } // [x1, x2)
	var rects []Rect
	prev := map[run]int{} // open run → rect index
	for y := 0; y < m.H; y++ {
		cur := map[run]int{}
		x := 0
		for x < m.W {
			if m.Data[y*m.W+x] <= 0.5 {
				x++
				continue
			}
			x1 := x
			for x < m.W && m.Data[y*m.W+x] > 0.5 {
				x++
			}
			r := run{x1, x}
			if idx, ok := prev[r]; ok {
				rects[idx].H++
				cur[r] = idx
			} else {
				rects = append(rects, Rect{X: x1, Y: y, W: x - x1, H: 1})
				cur[r] = len(rects) - 1
			}
		}
		prev = cur
	}
	return rects
}

// RasterizeRects paints rectangles into a fresh w×h binary grid; the
// inverse of a decomposition, used to verify partitions.
func RasterizeRects(w, h int, rects []Rect) *grid.Real {
	m := grid.NewReal(w, h)
	for _, r := range rects {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if x >= 0 && x < w && y >= 0 && y < h {
					m.Data[y*w+x] = 1
				}
			}
		}
	}
	return m
}
