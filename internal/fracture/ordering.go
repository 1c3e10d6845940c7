package fracture

import (
	"math"

	"cfaopc/internal/geom"
)

// OrderShots returns the shots reordered to reduce beam travel: a
// nearest-neighbour construction from the first shot, followed by a
// bounded 2-opt improvement pass (classic open-path TSP heuristics; exact
// ordering is immaterial as long as travel shrinks, which the tests
// assert). The input slice is not modified.
func OrderShots(shots []geom.Circle) []geom.Circle {
	n := len(shots)
	if n <= 2 {
		return append([]geom.Circle(nil), shots...)
	}
	dist := func(a, b geom.Circle) float64 {
		return math.Hypot(a.X-b.X, a.Y-b.Y)
	}

	// Nearest-neighbour chain.
	used := make([]bool, n)
	order := make([]int, 0, n)
	cur := 0
	used[0] = true
	order = append(order, 0)
	for len(order) < n {
		best := -1
		bestD := math.Inf(1)
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if d := dist(shots[cur], shots[j]); d < bestD {
				bestD = d
				best = j
			}
		}
		used[best] = true
		order = append(order, best)
		cur = best
	}

	// Bounded 2-opt: reverse segments while it helps, a few sweeps.
	for sweep := 0; sweep < 4; sweep++ {
		improved := false
		for i := 0; i+2 < n; i++ {
			for j := i + 2; j < n; j++ {
				a, b := shots[order[i]], shots[order[i+1]]
				c := shots[order[j]]
				before := dist(a, b)
				var after float64
				if j+1 < n {
					d := shots[order[j+1]]
					before += dist(c, d)
					after = dist(a, c) + dist(b, d)
				} else {
					after = dist(a, c) // open path: last edge disappears
				}
				if after+1e-12 < before {
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						order[lo], order[hi] = order[hi], order[lo]
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	out := make([]geom.Circle, n)
	for i, idx := range order {
		out[i] = shots[idx]
	}
	return out
}
