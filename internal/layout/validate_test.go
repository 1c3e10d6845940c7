package layout

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// validatePairs is Validate as the pair loop alone, the way it was before
// the sweep: the reference the sweep must agree with, error for error.
func validatePairs(l *Layout) error {
	if l.TileNM <= 0 {
		return fmt.Errorf("layout %q: non-positive tile size %d", l.Name, l.TileNM)
	}
	for i, r := range l.Rects {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("layout %q: rect %d has non-positive size", l.Name, i)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > l.TileNM || r.Y+r.H > l.TileNM {
			return fmt.Errorf("layout %q: rect %d out of tile bounds", l.Name, i)
		}
		for j := i + 1; j < len(l.Rects); j++ {
			s := l.Rects[j]
			if r.X < s.X+s.W && s.X < r.X+r.W && r.Y < s.Y+s.H && s.Y < r.Y+r.H {
				return fmt.Errorf("layout %q: rects %d and %d overlap", l.Name, i, j)
			}
		}
	}
	return nil
}

// randomLayout draws either a disjoint layout — one rect inside each
// cell of a random grid, often touching its neighbors — with one rect
// perhaps nudged, resized, duplicated or made degenerate, or a handful of
// free rects in a small tile, which overlap as often as not.
func randomLayout(rng *rand.Rand) *Layout {
	l := &Layout{Name: "rand", TileNM: 48 + rng.Intn(40)}
	if rng.Intn(4) == 0 {
		for n := rng.Intn(7); n > 0; n-- {
			l.Rects = append(l.Rects, Rect{X: rng.Intn(l.TileNM), Y: rng.Intn(l.TileNM), W: 1 + rng.Intn(20), H: 1 + rng.Intn(20)})
		}
		return l
	}
	cell := 4 + rng.Intn(8)
	for y := 0; y+cell <= l.TileNM; y += cell {
		for x := 0; x+cell <= l.TileNM; x += cell {
			if rng.Intn(3) == 0 {
				continue
			}
			w, h := 1+rng.Intn(cell), 1+rng.Intn(cell)
			l.Rects = append(l.Rects, Rect{X: x + rng.Intn(cell-w+1), Y: y + rng.Intn(cell-h+1), W: w, H: h})
		}
	}
	rng.Shuffle(len(l.Rects), func(i, j int) { l.Rects[i], l.Rects[j] = l.Rects[j], l.Rects[i] })
	if len(l.Rects) == 0 {
		return l
	}
	r := &l.Rects[rng.Intn(len(l.Rects))]
	switch rng.Intn(6) {
	case 0:
		r.X += rng.Intn(2*cell+1) - cell
	case 1:
		r.Y += rng.Intn(2*cell+1) - cell
	case 2:
		r.W += rng.Intn(cell + 1)
	case 3:
		r.H = rng.Intn(3) - 1
	case 4:
		l.Rects = append(l.Rects, l.Rects[rng.Intn(len(l.Rects))])
	}
	return l
}

// TestValidateMatchesPairLoop: on random layouts with and without
// overlaps, out-of-tile and degenerate rects, Validate returns exactly
// the pair loop's verdict and error. And clean, the sweep, agrees with
// the pair loop on its own: one that cried overlap on a valid layout
// would be hidden by the pair loop behind it, and cost its O(n²) on
// every valid layout.
func TestValidateMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var valid, invalid int
	for trial := 0; trial < 4000; trial++ {
		l := randomLayout(rng)
		want, got := validatePairs(l), l.Validate()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, %d rects in %d nm: Validate says %v, the pair loop %v\n%v", trial, len(l.Rects), l.TileNM, got, want, l.Rects)
		}
		if want == nil {
			valid++
		} else {
			invalid++
		}
		if clean(l.Rects, l.TileNM) != (want == nil) {
			t.Fatalf("trial %d: clean says %v, the pair loop %v\n%v", trial, clean(l.Rects, l.TileNM), want, l.Rects)
		}
	}
	if valid < 1000 || invalid < 1000 {
		t.Fatalf("%d valid and %d invalid layouts: the draw does not exercise both", valid, invalid)
	}
}

// TestValidateRatio guards the sweep's point: a 20k-rect array validates
// at least 10× faster than the pair loop (the sweep's best of three
// against one pair-loop run, which noise can only slow).
func TestValidateRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: a timing ratio")
	}
	l, err := GenerateArray(100, 100, ArrayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Rects) != 20000 {
		t.Fatalf("%d rects, want 20000", len(l.Rects))
	}
	timed := func(runs int, f func() error) time.Duration {
		d := time.Duration(1 << 62)
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(t0))
		}
		return d
	}
	sweep, pairs := timed(3, l.Validate), timed(1, func() error { return validatePairs(l) })
	t.Logf("20000 rects: sweep %v, pair loop %v (%.0fx)", sweep, pairs, float64(pairs)/float64(sweep))
	if sweep*10 > pairs {
		t.Fatalf("sweep %v is not 10x faster than the pair loop's %v", sweep, pairs)
	}
}
