package fracture

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/layout"
)

// orderShotsRef is OrderShots written the straightforward way, as it was
// before the spatial grids: a brute-force nearest-neighbour chain from the
// first shot, then up to four sweeps of first-improvement 2-opt over every
// (i, j) pair, both O(n²). It is the oracle: OrderShots must return the
// same order, shot for shot.
func orderShotsRef(shots []geom.Circle) []geom.Circle {
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

// requireOrderMatchesRef fails unless OrderShots returns the reference's
// order, compared bit for bit (a −0 and a +0 write different CSV bytes).
func requireOrderMatchesRef(t *testing.T, name string, shots []geom.Circle) {
	t.Helper()
	in := slices.Clone(shots)
	got, want := OrderShots(shots), orderShotsRef(shots)
	bits := func(c geom.Circle) [3]uint64 {
		return [3]uint64{math.Float64bits(c.X), math.Float64bits(c.Y), math.Float64bits(c.R)}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d shots ordered, want %d", name, len(got), len(want))
	}
	for k := range want {
		if bits(got[k]) != bits(want[k]) {
			t.Fatalf("%s (%d shots): position %d is %+v, the reference has %+v", name, len(shots), k, got[k], want[k])
		}
	}
	for k := range in {
		if bits(in[k]) != bits(shots[k]) {
			t.Fatalf("%s: OrderShots modified its input at %d", name, k)
		}
	}
}

// TestOrderShotsMatchesRef holds the grid searches to the O(n²) scans on
// sets built to break them: exact ties on integer and half-integer
// lattices, duplicates, collinear runs, clusters joined by long edges,
// far-off origins, and the tiny sizes the grid code special-cases. Each
// shot's radius is its index, so a swap of two equal centers shows.
func TestOrderShotsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	sets, maxN := 400, 200
	if testing.Short() {
		sets, maxN = 100, 80
	}
	families := []struct {
		name string
		at   func(i, n int) (x, y float64)
	}{
		{"uniform", func(int, int) (float64, float64) { return rng.Float64() * 500, rng.Float64() * 500 }},
		{"lattice", func(_, n int) (float64, float64) {
			k := 1 + int(math.Sqrt(float64(n))/2)
			return float64(rng.Intn(k)), float64(rng.Intn(k))
		}},
		{"half-integer", func(int, int) (float64, float64) { return float64(rng.Intn(40)) / 2, float64(rng.Intn(40)) / 2 }},
		{"horizontal", func(int, int) (float64, float64) { return float64(rng.Intn(100)), 7 }},
		{"vertical", func(int, int) (float64, float64) { return -3, rng.Float64() * 90 }},
		{"diagonal", func(int, int) (float64, float64) { v := float64(rng.Intn(60)); return v, v }},
		{"sloped", func(int, int) (float64, float64) { v := rng.Float64() * 100; return v, 0.37*v + 11 }},
		{"clustered", func(i, _ int) (float64, float64) {
			cx, cy := float64(i%4)*1000, float64(i%3)*700
			return cx + rng.NormFloat64()*3, cy + rng.NormFloat64()*3
		}},
		{"far origin", func(int, int) (float64, float64) { return 1e7 + float64(rng.Intn(50))*0.1, -5e6 + rng.Float64()*3 }},
		{"coincident", func(int, int) (float64, float64) { return 12.5, 12.5 }},
	}
	for s := 0; s < sets; s++ {
		f := families[s%len(families)]
		n := s / len(families) % 4 // every family at 0..3 shots first
		if s >= 4*len(families) {
			n = 4 + rng.Intn(maxN)
		}
		shots := make([]geom.Circle, n)
		for i := range shots {
			x, y := f.at(i, n)
			shots[i] = geom.Circle{X: x, Y: y, R: float64(i)}
		}
		requireOrderMatchesRef(t, fmt.Sprintf("%s set %d", f.name, s), shots)
	}
}

// TestOrderShotsMatchesRefOnSuite: the shot lists CircleRule cuts from
// the suite, each case alone and all ten side by side as tiles, and an
// array chip's periodic list, where equal distances are everywhere.
func TestOrderShotsMatchesRefOnSuite(t *testing.T) {
	cells := 8
	if testing.Short() {
		cells = 4
	}
	var tiles []geom.Circle
	for k, l := range layout.GenerateSuite() {
		const n = 256
		shots := CircleRule(l.Rasterize(n), DefaultCircleRuleConfig(float64(l.TileNM)/n))
		requireOrderMatchesRef(t, l.Name, shots)
		for _, c := range shots {
			tiles = append(tiles, geom.Circle{X: c.X + float64(k%4*n), Y: c.Y + float64(k/4*n), R: c.R})
		}
	}
	requireOrderMatchesRef(t, "suite as tiles", tiles)
	requireOrderMatchesRef(t, fmt.Sprintf("%dx%d array", cells, cells), arrayShots(t, cells))
}

// arrayShots is the shot list of a cells×cells array chip as the tiled
// flow stitches it, one 128 px tile after another in row-major order,
// each tile's shots CircleRule's on the array's cell at 8 nm/px.
func arrayShots(t testing.TB, cells int) []geom.Circle {
	l, err := layout.GenerateArray(1, 1, layout.ArrayConfig{TileNM: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const px = 128
	motif := CircleRule(l.Rasterize(px), DefaultCircleRuleConfig(float64(l.TileNM)/px))
	shots := make([]geom.Circle, 0, cells*cells*len(motif))
	for ty := 0; ty < cells; ty++ {
		for tx := 0; tx < cells; tx++ {
			for _, c := range motif {
				shots = append(shots, geom.Circle{X: c.X + float64(tx*px), Y: c.Y + float64(ty*px), R: c.R})
			}
		}
	}
	return shots
}

// TestOrderShotsRatio guards the point of the grids: an array chip of
// four times the shots costs at most 8× as much to order (quadratic
// would be 16×). Minima of several runs at one P, so that noise can only
// widen the ratio; off under the race detector and in short mode.
func TestOrderShotsRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a timing ratio: not in short mode or under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small, large := arrayShots(t, 32), arrayShots(t, 64)
	timed := func(runs int, shots []geom.Circle) time.Duration {
		d := time.Duration(1 << 62)
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			OrderShots(shots)
			d = min(d, time.Since(t0))
		}
		return d
	}
	ts, tl := timed(5, small), timed(3, large)
	ratio := float64(tl) / float64(ts)
	t.Logf("%d shots %v, %d shots %v: %.2fx", len(small), ts, len(large), tl, ratio)
	if ratio > 8 {
		t.Fatalf("ordering %d shots costs %.2fx what %d cost, want ≤ 8x", len(large), ratio, len(small))
	}
}

var orderSink []geom.Circle

// BenchmarkOrderShots times the reference scans against OrderShots on
// array chips of 20 shots a tile: the first 384 shots of a 5×5 array
// (array_cache's job size), and the 16×16, 32×32 and 64×64 arrays.
func BenchmarkOrderShots(b *testing.B) {
	for _, impl := range []struct {
		name  string
		order func([]geom.Circle) []geom.Circle
	}{{"ref", orderShotsRef}, {"new", OrderShots}} {
		for _, size := range []struct{ cells, n int }{{5, 384}, {16, 5120}, {32, 20480}, {64, 81920}} {
			shots := arrayShots(b, size.cells)[:size.n]
			b.Run(fmt.Sprintf("%s/%d", impl.name, size.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					orderSink = impl.order(shots)
				}
			})
		}
	}
}
