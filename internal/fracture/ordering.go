package fracture

import (
	"math"
	"slices"

	"cfaopc/internal/geom"
)

// TravelLength returns the total beam travel of a shot sequence: the sum
// of center-to-center distances in writing order, in the shots' units.
// Stage settling between flashes is a real component of mask write time,
// so shot lists are ordered before hand-off to the writer.
func TravelLength(shots []geom.Circle) float64 {
	total := 0.0
	for i := 1; i < len(shots); i++ {
		total += dist(shots[i-1], shots[i])
	}
	return total
}

func dist(a, b geom.Circle) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// closer reports whether dist(a, c) < r. It tries the sum of squares
// first: one above r²·(1+1e-9) puts Hypot's result above r whatever the
// roundings (a few ulps each), so only a shot that may pass pays for
// the Hypot.
func closer(a, c geom.Circle, r float64) bool {
	dx, dy := a.X-c.X, a.Y-c.Y
	return dx*dx+dy*dy <= r*r*(1+1e-9) && math.Hypot(dx, dy) < r
}

// OrderShots returns the shots reordered to reduce beam travel: a
// nearest-neighbour chain from the first shot (the nearest unused shot
// by math.Hypot, the lowest index among equals), then up to four sweeps
// of first-improvement 2-opt over the open path, taking a move when
// after+1e-12 < before (classic open-path TSP heuristics). The input
// slice is not modified; coordinates must be finite.
//
// Both phases search uniform grids instead of scanning every shot, and
// skip only what the scans would have rejected, so the order is the one
// the O(n²) scans give, shot for shot (ordering_ref_test.go keeps them).
func OrderShots(shots []geom.Circle) []geom.Circle {
	n := len(shots)
	if n <= 2 {
		return append([]geom.Circle(nil), shots...)
	}
	g := newShotGrid(shots)
	t := newTour(g, g.chain())
	t.twoOpt()
	out := make([]geom.Circle, n)
	for k, s := range t.order {
		out[k] = shots[s]
	}
	return out
}

// axis maps a coordinate to one of n cells of width size from lo. It is
// monotone in x, as the subtraction, the product and both clamps are,
// and that makes a box query exact without slack: if fl(|x−c|) < r for
// a float r, then |x−c| < r exactly, so c lies strictly between x−r and
// x+r, and axis.cell(c) lies between the cells of fl(x−r) and fl(x+r).
// math.Hypot(dx, dy) ≥ max(|dx|, |dy|) holds bit for bit (it returns the
// larger times a square root ≥ 1), so a distance test is a box test.
type axis struct {
	lo, size, inv float64 // inv = 1/size
	n             int
}

func newAxis(lo, size, extent float64) axis {
	return axis{lo, size, 1 / size, int(extent/size) + 1}
}

func (a axis) cell(x float64) int {
	u := (x - a.lo) * a.inv
	switch {
	case !(u >= 0):
		return 0
	case u >= float64(a.n-1):
		return a.n - 1
	}
	return int(u)
}

// shotGrid files every shot by the uniform cell its center falls in,
// about two shots to a cell. The files are one slice, row-major by cell,
// so a row's run of cells is one subslice.
type shotGrid struct {
	shots  []geom.Circle
	x, y   axis
	w, h   float64 // the extent of the centers
	start  []int32 // cell c holds idx[start[c]:start[c+1]]
	idx    []int32
	cellOf []int32
}

func newShotGrid(shots []geom.Circle) *shotGrid {
	minX, minY, maxX, maxY := shots[0].X, shots[0].Y, shots[0].X, shots[0].Y
	for _, s := range shots[1:] {
		minX, maxX = min(minX, s.X), max(maxX, s.X)
		minY, maxY = min(minY, s.Y), max(maxY, s.Y)
	}
	g := &shotGrid{shots: shots, w: maxX - minX, h: maxY - minY}
	n := float64(len(shots))
	// The second bound keeps a thin set's cells O(n): no axis has more
	// than n/2 + 1 of them.
	size := max(math.Sqrt(2*g.w*g.h/n), 2*max(g.w, g.h)/n)
	if !(size > 0) {
		size = 1 // every center coincides
	}
	g.x, g.y = newAxis(minX, size, g.w), newAxis(minY, size, g.h)
	g.start = make([]int32, g.x.n*g.y.n+1)
	g.cellOf = make([]int32, len(shots))
	for i, s := range shots {
		c := g.y.cell(s.Y)*g.x.n + g.x.cell(s.X)
		g.cellOf[i] = int32(c)
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.idx = make([]int32, len(shots))
	fill := slices.Clone(g.start[:len(g.start)-1])
	for i, c := range g.cellOf {
		g.idx[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// chain is the nearest-neighbour chain from shot 0. Each step searches
// rings of cells around the current shot's cell, taking used shots out
// of their cells as it goes. A shot in ring r is more than (r−1) cells
// from the current one on some axis; the search stops once that bound,
// less 1/1024 cell for the cell mapping's rounding, exceeds the best
// distance found, so no unseen shot can tie it.
func (g *shotGrid) chain() []int32 {
	n := len(g.shots)
	live := slices.Clone(g.idx)
	left := make([]int32, len(g.start)-1)
	for c := range left {
		left[c] = g.start[c+1] - g.start[c]
	}
	at := make([]int32, n) // each live shot's slot in live
	for k, s := range live {
		at[s] = int32(k)
	}
	take := func(s int32) {
		c := g.cellOf[s]
		last := g.start[c] + left[c] - 1
		live[at[s]] = live[last]
		at[live[last]] = at[s]
		left[c]--
	}
	order := make([]int32, 1, n)
	take(0)
	for cur := int32(0); len(order) < n; {
		p := g.shots[cur]
		best, bestD := int32(-1), math.Inf(1)
		scan := func(x0, x1, y int) {
			for c := y*g.x.n + max(x0, 0); c <= y*g.x.n+min(x1, g.x.n-1); c++ {
				for _, s := range live[g.start[c] : g.start[c]+left[c]] {
					dx, dy := p.X-g.shots[s].X, p.Y-g.shots[s].Y
					if dx*dx+dy*dy > bestD*bestD*(1+1e-9) {
						continue // farther than bestD: see closer
					}
					if d := math.Hypot(dx, dy); d < bestD || d == bestD && s < best {
						best, bestD = s, d
					}
				}
			}
		}
		cx, cy := g.x.cell(p.X), g.y.cell(p.Y)
		for r := 0; ; r++ {
			if best >= 0 && (float64(r-1)-1.0/1024)*g.x.size > bestD {
				break
			}
			x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
			if x0 < 0 && y0 < 0 && x1 >= g.x.n && y1 >= g.y.n {
				break // the ring lies outside the grid, and so do all after it
			}
			for y := max(y0, 0); y <= min(y1, g.y.n-1); y++ {
				if y == y0 || y == y1 {
					scan(x0, x1, y)
					continue
				}
				scan(x0, x0, y)
				if x1 != x0 {
					scan(x1, x1, y)
				}
			}
		}
		take(best)
		order = append(order, best)
		cur = best
	}
	return order
}

// tour is the open path the 2-opt sweeps improve: the shot at each
// position, each shot's position, and the cached edge lengths. A
// reversed edge's length is the same float (Hypot takes absolute values
// first), so the cache always equals what the scan would compute.
type tour struct {
	g     *shotGrid
	order []int32
	pos   []int32
	e     []float64 // e[k] = dist(order[k], order[k+1])
	reach reach
	cand  []int32
}

func newTour(g *shotGrid, order []int32) *tour {
	n := len(order)
	t := &tour{g: g, order: order, pos: make([]int32, n), e: make([]float64, n-1)}
	for k, s := range order {
		t.pos[s] = int32(k)
	}
	for k := range t.e {
		t.e[k] = dist(g.shots[order[k]], g.shots[order[k+1]])
	}
	t.reach = newReach(g)
	for k := range order {
		t.refile(k)
	}
	return t
}

// twoOpt runs the sweeps. Reversing order[i+1..j] replaces edges (a,b)
// and (c,d) with (a,c) and (b,d), or only (a,b) with (a,c) at the path's
// end. If hypot(a,c) ≥ e[i] and hypot(b,d) ≥ e[j], rounding is monotone,
// so after ≥ before and the scan takes no move: only j in collect's
// candidate set can move, and the sweep visits those in the scan's order.
func (t *tour) twoOpt() {
	n := len(t.order)
	for sweep := 0; sweep < 4; sweep++ {
		improved := false
		for i := 0; i+2 < n; i++ {
			t.collect(i, i+2)
			for k := 0; k < len(t.cand); k++ {
				if j := int(t.cand[k]); t.move(i, j) {
					improved = true
					t.collect(i, j+1)
					k = -1
				}
			}
		}
		if !improved {
			break
		}
	}
}

// collect sets t.cand to the positions j ≥ jmin, ascending, where the
// move at (i, j) can improve: the shot c at j is within e[i] of a =
// order[i] (found in the shot grid), or the shot d at j+1 has
// hypot(b, d) < e[j] for b = order[i+1] (found in the reach ladder,
// since e[j] is one of d's two edges).
func (t *tour) collect(i, jmin int) {
	g, shots := t.g, t.g.shots
	t.cand = t.cand[:0]
	a, b, r := shots[t.order[i]], shots[t.order[i+1]], t.e[i]
	x0, x1, y1 := g.x.cell(a.X-r), g.x.cell(a.X+r), g.y.cell(a.Y+r)
	for y := g.y.cell(a.Y - r); y <= y1; y++ {
		for _, s := range g.idx[g.start[y*g.x.n+x0]:g.start[y*g.x.n+x1+1]] {
			if j := t.pos[s]; int(j) >= jmin && closer(a, shots[s], r) {
				t.cand = append(t.cand, j)
			}
		}
	}
	rc := &t.reach
	for _, lv := range rc.levels {
		if lv.count == 0 {
			continue
		}
		s := lv.x.size
		x0, x1, y1 := lv.x.cell(b.X-s), lv.x.cell(b.X+s), lv.y.cell(b.Y+s)
		for y := lv.y.cell(b.Y - s); y <= y1; y++ {
			for c := y*lv.x.n + x0; c <= y*lv.x.n+x1; c++ {
				for d := rc.head[lv.off+c]; d >= 0; d = rc.next[d] {
					if j := t.pos[d] - 1; int(j) >= jmin && closer(b, shots[d], t.e[j]) {
						t.cand = append(t.cand, j)
					}
				}
			}
		}
	}
	slices.Sort(t.cand)
	t.cand = slices.Compact(t.cand)
}

// move makes the scan's test at (i, j) and, if it passes, reverses
// order[i+1..j] and refreshes what depends on the four end shots.
func (t *tour) move(i, j int) bool {
	shots, n := t.g.shots, len(t.order)
	a, b, c := shots[t.order[i]], shots[t.order[i+1]], shots[t.order[j]]
	before, ac := t.e[i], dist(a, c)
	after, bd := ac, 0.0
	if j+1 < n {
		bd = dist(b, shots[t.order[j+1]])
		before += t.e[j]
		after = ac + bd
	}
	if !(after+1e-12 < before) {
		return false
	}
	for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
		t.order[lo], t.order[hi] = t.order[hi], t.order[lo]
		t.pos[t.order[lo]], t.pos[t.order[hi]] = int32(lo), int32(hi)
	}
	slices.Reverse(t.e[i+1 : j])
	t.e[i] = ac
	if j+1 < n {
		t.e[j] = bd
	}
	for _, k := range [...]int{i, i + 1, j, j + 1} {
		if k < n {
			t.refile(k)
		}
	}
	return true
}

// refile files the shot at position k in the reach ladder by the longer
// of its tour edges.
func (t *tour) refile(k int) {
	var m float64
	if k > 0 {
		m = t.e[k-1]
	}
	if k < len(t.e) {
		m = max(m, t.e[k])
	}
	t.reach.file(t.order[k], m)
}

// reach is a ladder of uniform grids, each level's cells twice the last's
// from the shot grid's size up to one cell over everything. A shot d with
// longer tour edge m > 0 is filed in the first level whose cell is ≥ m
// (or the last), so every b with hypot(b, d) < m finds d in the 3×3
// block of cells around b on that level. A shot with m = 0 can improve
// nothing and is not filed.
type reach struct {
	shots  []geom.Circle
	levels []reachLevel
	head   []int32 // first shot in each cell of every level, or -1
	next   []int32 // the next shot in the same cell, or -1
	cell   []int32 // the head slot a shot is filed under, or -1
	level  []int8
}

type reachLevel struct {
	x, y  axis
	off   int // the level's cells start at head[off]
	count int // shots filed on the level
}

func newReach(g *shotGrid) reach {
	r := reach{shots: g.shots}
	for size, off := g.x.size, 0; ; size *= 2 {
		lv := reachLevel{x: newAxis(g.x.lo, size, g.w), y: newAxis(g.y.lo, size, g.h), off: off}
		r.levels = append(r.levels, lv)
		off += lv.x.n * lv.y.n
		if lv.x.n == 1 && lv.y.n == 1 {
			r.head = unfiled(off)
			break
		}
	}
	n := len(g.shots)
	r.next, r.cell = make([]int32, n), unfiled(n)
	r.level = make([]int8, n)
	return r
}

func (r *reach) file(s int32, m float64) {
	if c := r.cell[s]; c >= 0 { // unlink s: a cell's list is short
		p := &r.head[c]
		for *p != s {
			p = &r.next[*p]
		}
		*p = r.next[s]
		r.levels[r.level[s]].count--
		r.cell[s] = -1
	}
	if !(m > 0) {
		return
	}
	l := 0
	for l+1 < len(r.levels) && r.levels[l].x.size < m {
		l++
	}
	lv := &r.levels[l]
	p := r.shots[s]
	c := int32(lv.off + lv.y.cell(p.Y)*lv.x.n + lv.x.cell(p.X))
	r.cell[s], r.level[s], r.next[s], r.head[c] = c, int8(l), r.head[c], s
	lv.count++
}

func unfiled(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}
