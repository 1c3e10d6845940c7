package fracture

import (
	"sort"

	"cfaopc/internal/geom"
)

// CompactShots removes circles that are redundant: shots whose covered
// mask pixels are already covered by the union of the remaining shots.
// Candidates are examined smallest-radius first (small skeleton circles
// are the usual redundancy, swallowed by their larger neighbours), and a
// shot is dropped only when removal does not uncover a single pixel of
// the union the input shot list produces on a w×h grid.
//
// The result prints identically to the input — the union raster is
// unchanged — so compaction is a pure shot-count (write time) win, the
// circular-writer analogue of VSB shot merging in mask data prep.
func CompactShots(w, h int, shots []geom.Circle) []geom.Circle {
	if len(shots) <= 1 {
		return append([]geom.Circle(nil), shots...)
	}
	// Coverage counts: how many shots cover each pixel of the union.
	counts := make([]int32, w*h)
	paint := func(c geom.Circle, delta int32) {
		r2 := c.R * c.R
		x0, x1 := int(c.X-c.R-1), int(c.X+c.R+1)
		y0, y1 := int(c.Y-c.R-1), int(c.Y+c.R+1)
		for y := y0; y <= y1; y++ {
			if y < 0 || y >= h {
				continue
			}
			dy := float64(y) - c.Y
			for x := x0; x <= x1; x++ {
				if x < 0 || x >= w {
					continue
				}
				dx := float64(x) - c.X
				if dx*dx+dy*dy <= r2 {
					counts[y*w+x] += delta
				}
			}
		}
	}
	for _, c := range shots {
		paint(c, 1)
	}

	// soleOwner reports whether the shot covers any pixel no other shot
	// covers.
	soleOwner := func(c geom.Circle) bool {
		r2 := c.R * c.R
		x0, x1 := int(c.X-c.R-1), int(c.X+c.R+1)
		y0, y1 := int(c.Y-c.R-1), int(c.Y+c.R+1)
		for y := y0; y <= y1; y++ {
			if y < 0 || y >= h {
				continue
			}
			dy := float64(y) - c.Y
			for x := x0; x <= x1; x++ {
				if x < 0 || x >= w {
					continue
				}
				dx := float64(x) - c.X
				if dx*dx+dy*dy <= r2 && counts[y*w+x] == 1 {
					return true
				}
			}
		}
		return false
	}

	order := make([]int, len(shots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return shots[order[a]].R < shots[order[b]].R })

	removed := make([]bool, len(shots))
	for _, i := range order {
		if !soleOwner(shots[i]) {
			removed[i] = true
			paint(shots[i], -1)
		}
	}
	var out []geom.Circle
	for i, c := range shots {
		if !removed[i] {
			out = append(out, c)
		}
	}
	return out
}

// UnionEquals reports whether two shot lists rasterize to the same union
// on a w×h grid — the invariant CompactShots preserves.
func UnionEquals(w, h int, a, b []geom.Circle) bool {
	ra := geom.RasterizeCircles(w, h, a)
	rb := geom.RasterizeCircles(w, h, b)
	return ra.SqDiff(rb) == 0
}
