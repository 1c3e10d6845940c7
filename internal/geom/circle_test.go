package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestRasterizeCirclesBasics(t *testing.T) {
	m := RasterizeCircles(32, 32, []Circle{{X: 16, Y: 16, R: 5}})
	if m.At(16, 16) != 1 || m.At(16, 20) != 1 {
		t.Fatal("circle interior not painted")
	}
	if m.At(16, 22) != 0 || m.At(0, 0) != 0 {
		t.Fatal("circle exterior painted")
	}
	// Area ≈ πr².
	want := math.Pi * 25
	if got := gridkit.Sum(m); math.Abs(got-want) > 0.25*want {
		t.Fatalf("disk area %v, want ≈ %v", got, want)
	}
}

func TestRasterizeCirclesDegenerate(t *testing.T) {
	if m := RasterizeCircles(16, 16, nil); gridkit.Sum(m) != 0 {
		t.Fatal("no circles should paint nothing")
	}
	// Non-positive radius circles are skipped.
	m := RasterizeCircles(16, 16, []Circle{{X: 8, Y: 8, R: 0}, {X: 8, Y: 8, R: -3}})
	if gridkit.Sum(m) != 0 {
		t.Fatal("degenerate circles painted pixels")
	}
	// Off-grid circles clip cleanly.
	m = RasterizeCircles(16, 16, []Circle{{X: -5, Y: 8, R: 7}})
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if m.At(x, y) == 1 && x > 2 {
				t.Fatal("clipped circle painted far inside")
			}
		}
	}
}

// Property: the union raster is symmetric under reflecting all circles.
func TestRasterizeSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 33 // odd so reflection is exact about (n-1)/2
		var cs, mirrored []Circle
		for i := 0; i < 5; i++ {
			c := Circle{
				X: float64(rng.Intn(n)),
				Y: float64(rng.Intn(n)),
				R: rng.Float64()*5 + 1,
			}
			cs = append(cs, c)
			mirrored = append(mirrored, Circle{X: float64(n-1) - c.X, Y: c.Y, R: c.R})
		}
		a := RasterizeCircles(n, n, cs)
		b := RasterizeCircles(n, n, mirrored)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if a.At(x, y) != b.At(n-1-x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: cover rate is monotonically non-increasing in the radius once
// the circle fully encloses the region locally (growing only adds outside
// area), and equals ~1 for a circle well inside a large filled region.
func TestCoverRateBehaviour(t *testing.T) {
	m := grid.NewReal(64, 64)
	for y := 16; y < 48; y++ {
		for x := 16; x < 48; x++ {
			m.Set(x, y, 1)
		}
	}
	// Deep inside: rate 1.
	if cr := CoverRate(Circle{X: 32, Y: 32, R: 6}, m); cr < 0.999 {
		t.Fatalf("interior cover rate %v", cr)
	}
	// Monotone decrease for radii beyond the inscribed radius.
	prev := 1.1
	for r := 14.0; r <= 30; r += 2 {
		cr := CoverRate(Circle{X: 32, Y: 32, R: r}, m)
		if cr > prev+1e-9 {
			t.Fatalf("cover rate grew at r=%v: %v > %v", r, cr, prev)
		}
		prev = cr
	}
	// Fully outside: rate 0.
	if cr := CoverRate(Circle{X: 5, Y: 5, R: 3}, m); cr != 0 {
		t.Fatalf("outside cover rate %v", cr)
	}
	// Degenerate radius.
	if cr := CoverRate(Circle{X: 32, Y: 32, R: 0}, m); cr != 0 {
		t.Fatalf("zero-radius cover rate %v", cr)
	}
}

func TestCoverRateOffGridCountsAgainst(t *testing.T) {
	m := grid.NewReal(16, 16)
	gridkit.Fill(m, 1)
	// Circle half off the grid: off-grid area counts as uncovered.
	cr := CoverRate(Circle{X: 0, Y: 8, R: 4}, m)
	if cr > 0.7 {
		t.Fatalf("off-grid circle cover rate %v, want ≈ 0.5", cr)
	}
}

// The ring prober is CoverRate computed incrementally: at every radius of
// the ladder, for centres inside the grid, on and across its border and
// right outside, the two integers it divides are CoverRate's.
func TestCoverLadderMatchesCoverRate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w, h := 37, 29
	region := grid.NewReal(w, h)
	pix := make([]uint8, w*h)
	for i := range pix {
		// A blob with ragged edges, so that rates take many values.
		x, y := float64(i%w)-17, float64(i/w)-13
		if x*x/200+y*y/90+rng.Float64()*0.3 < 1 {
			region.Data[i], pix[i] = 1, 1
		}
	}
	centres := []Pt{{18, 14}, {5, 20}, {0, 0}, {w - 1, h - 1}, {0, 14}, {18, h - 1},
		{-1, 5}, {w, 5}, {10, -3}, {w + 4, h + 4}, {-40, -40}}
	for _, bounds := range [][2]float64{{6, 38}, {0.75, 4.75}, {1.5, 9.5}, {3, 19}, {2.3, 7.1}, {0.2, 0.2}, {5, 5}} {
		l := LadderFor(bounds[0], bounds[1])
		if got := l.Radius(0); got != bounds[0] {
			t.Fatalf("ladder %v starts at %v", bounds, got)
		}
		if got := l.Radius(l.Steps() - 1); got != bounds[1] {
			t.Fatalf("ladder %v ends at %v", bounds, got)
		}
		for _, c := range centres {
			inside := 0
			for j := 0; j < l.Steps(); j++ {
				inside += l.Ring(j, pix, w, h, c.X, c.Y)
				want := CoverRate(Circle{X: float64(c.X), Y: float64(c.Y), R: l.Radius(j)}, region)
				if got := l.Rate(j, inside); got != want {
					t.Fatalf("ladder %v centre %v step %d (r=%v): rate %v, CoverRate %v",
						bounds, c, j, l.Radius(j), got, want)
				}
			}
		}
	}
}

// The ladder's radii are the ones the selection loop has always tried: a
// running sum from RMin in half-pixel steps, the last one clamped to RMax.
func TestLadderRadii(t *testing.T) {
	for _, b := range [][2]float64{{6, 38}, {0.75, 4.75}, {2.3, 7.1}, {1.2, 1.2}, {0.1, 0.35}} {
		var want []float64
		for r := b[0]; ; r += 0.5 {
			if r > b[1] {
				r = b[1]
			}
			want = append(want, r)
			if r == b[1] {
				break
			}
		}
		l := LadderFor(b[0], b[1])
		if l.Steps() != len(want) {
			t.Fatalf("ladder %v has %d steps, want %d", b, l.Steps(), len(want))
		}
		for j, r := range want {
			if l.Radius(j) != r {
				t.Fatalf("ladder %v step %d = %v, want %v", b, j, l.Radius(j), r)
			}
		}
	}
}

// LadderFor memoizes, and sweeping many bounds neither grows the table
// without limit nor invalidates a ladder a caller still holds.
func TestLadderForIsBounded(t *testing.T) {
	first := LadderFor(2, 9)
	if LadderFor(2, 9) != first {
		t.Fatal("same bounds, different ladder")
	}
	for i := 0; i < 100; i++ {
		LadderFor(1, 2+float64(i)/10)
	}
	ladders.Lock()
	n := len(ladders.byBounds)
	ladders.Unlock()
	if n > 16 {
		t.Fatalf("%d ladders cached", n)
	}
	// first was evicted on the way; it still works, and a rebuilt ladder
	// for the same bounds is the same table.
	again := LadderFor(2, 9)
	if !reflect.DeepEqual(again, first) {
		t.Fatal("ladder for the same bounds differs after eviction")
	}
}

// requireSpan fails unless Span and Rows agree with the per-pixel disk
// predicate on row y of a w-column grid: the span is exactly the pixels
// of [0, w) within R of the centre, an empty one is (0, 0), and a row
// outside Rows holds no such pixel.
func requireSpan(t *testing.T, c Circle, y, w int) {
	t.Helper()
	x0, x1 := c.Span(y, w)
	if x0 > x1 || x0 < 0 || x1 > w || (x0 == x1 && x0 != 0) {
		t.Fatalf("%+v row %d of %d: span [%d, %d) is not a clipped interval", c, y, w, x0, x1)
	}
	lo, hi := c.Rows(y, y+1)
	for x := 0; x < w; x++ {
		dx, dy := float64(x)-c.X, float64(y)-c.Y
		want := c.R > 0 && dx*dx+dy*dy <= c.R*c.R
		if got := x0 <= x && x < x1; got != want {
			t.Fatalf("%+v row %d of %d: pixel %d in span [%d, %d) is %v, predicate %v", c, y, w, x, x0, x1, got, want)
		}
		if want && lo >= hi {
			t.Fatalf("%+v: row %d holds pixel %d but lies outside Rows", c, y, x)
		}
	}
}

// Span is the disk predicate of every raster, settled at both ends: for
// integer, half-integer and arbitrary centres and radii, radii that pass
// through a pixel centre give or take one ulp (where the square root
// alone misplaces an end), radii at or below zero, and circles hanging
// past every edge of the grid.
func TestCircleSpanMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	coord := func(lim int) float64 {
		v := float64(rng.Intn(lim+40) - 20)
		switch rng.Intn(3) {
		case 1:
			v += 0.5
		case 2:
			v += rng.Float64()
		}
		return v
	}
	for trial := 0; trial < 4000; trial++ {
		w := rng.Intn(60) + 1
		c := Circle{X: coord(w), Y: coord(40), R: coord(20) / 2}
		switch trial % 4 {
		case 1: // through pixel (px, py)
			dx, dy := float64(rng.Intn(w+10)-5)-c.X, float64(rng.Intn(50)-5)-c.Y
			c.R = math.Sqrt(dx*dx + dy*dy)
			c.R = math.Nextafter(c.R, c.R+float64(rng.Intn(3)-1))
		case 2:
			c.R = -rng.Float64() * float64(trial%3) // zero and negative radii
		}
		for y := int(c.Y - math.Abs(c.R) - 3); y <= int(c.Y+math.Abs(c.R)+3); y++ {
			requireSpan(t, c, y, w)
		}
	}
}

func FuzzCircleSpan(f *testing.F) {
	f.Add(10.0, 10.0, 4.0, uint8(32), int16(8))
	f.Add(10.5, 3.5, 2.5, uint8(12), int16(1))
	f.Add(-3.0, 7.0, 5.0, uint8(9), int16(7))
	f.Add(30.25, 0.0, 0.0, uint8(31), int16(0))
	f.Add(1.0, 1.0, 1e-300, uint8(3), int16(1))
	f.Fuzz(func(t *testing.T, x, y, r float64, w uint8, row int16) {
		for _, v := range []float64{x, y, r} {
			if math.IsNaN(v) || math.Abs(v) > 1e4 {
				t.Skip("centres and radii are finite pixel coordinates")
			}
		}
		requireSpan(t, Circle{X: x, Y: y, R: r}, int(row), int(w)+1)
	})
}
