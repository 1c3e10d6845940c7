package fracture

import (
	"fmt"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/gridkit"
)

// suiteWindow cuts an n×n window out of suite case 4 at 2 nm/px — the
// resolution of the benchmark's heavy CircleRule jobs — where the case's
// bars are, so the window holds several shapes and slices some of them.
func suiteWindow(tb testing.TB, n int) (*grid.Real, CircleRuleConfig) {
	tb.Helper()
	const chipN, x0, y0 = 1024, 288, 256
	l := layout.GenerateSuite()[3]
	m := cutWindow(l.Rasterize(chipN), x0, y0, n, n)
	if s := gridkit.Sum(m); s == 0 || int(s) == n*n {
		tb.Fatalf("suite window %d holds %v foreground pixels", n, s)
	}
	return m, DefaultCircleRuleConfig(float64(l.TileNM) / chipN)
}

var sinkShots []geom.Circle

func BenchmarkCircleRule(b *testing.B) {
	for _, n := range []int{96, 128, 192} {
		m, cfg := suiteWindow(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkShots = CircleRule(m, cfg)
			}
		})
	}
}

// BenchmarkSelectRadius grows one circle from RMin to RMax: the centre
// sits deep inside an all-foreground window, so the cover rate never
// drops and every ring of the ladder is walked.
func BenchmarkSelectRadius(b *testing.B) {
	cfg := DefaultCircleRuleConfig(2)
	m := grid.NewReal(96, 96)
	gridkit.Fill(m, 1)
	f := fracturer{cfg: cfg, ladder: geom.LadderFor(cfg.RMin, cfg.RMax)}
	f.labels.Relabel(m, true)
	f.crop(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := f.selectRadius(48, 48); c.R != cfg.RMax {
			b.Fatalf("radius %v, want RMax", c.R)
		}
	}
}

// minWalls times a and b alternately and returns the fastest run of each:
// on a shared host minima are stable where means are not, and a noisy
// spell hits both sides.
func minWalls(runs int, a, b func()) (ta, tb time.Duration) {
	ta, tb = 1<<62, 1<<62
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		ta, tb = min(ta, t1.Sub(t0)), min(tb, time.Since(t1))
	}
	return ta, tb
}

// The cost of CircleRule follows the shapes, not the window around them.
// The same shapes in a window of sixteen times the area give the same
// shots, moved, and take nowhere near sixteen times as long — which they
// did when every region was a window-sized raster.
func TestCircleRuleCostTracksRegionNotWindow(t *testing.T) {
	const small, big, off = 96, 384, 144
	m, cfg := suiteWindow(t, small)
	for i := 0; i < small; i++ { // no shape touches the border: both windows hold the same shapes
		m.Data[i], m.Data[(small-1)*small+i], m.Data[i*small], m.Data[i*small+small-1] = 0, 0, 0, 0
	}
	wide := grid.NewReal(big, big)
	for y := 0; y < small; y++ {
		copy(wide.Data[(off+y)*big+off:], m.Data[y*small:(y+1)*small])
	}
	got, want := CircleRule(wide, cfg), CircleRule(m, cfg)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d shots in the wide window, %d in the small one", len(got), len(want))
	}
	for i, c := range want {
		if moved := (geom.Circle{X: c.X + off, Y: c.Y + off, R: c.R}); got[i] != moved {
			t.Fatalf("shot %d: %+v in the wide window, want %+v", i, got[i], moved)
		}
	}
	if testing.Short() {
		t.Skip("timing guard")
	}
	tSmall, tWide := minWalls(20, func() { CircleRule(m, cfg) }, func() { CircleRule(wide, cfg) })
	ratio := float64(tWide) / float64(tSmall)
	t.Logf("CircleRule: %v in a %d-px window, %v in a %d-px window, ratio %.2f (window area ratio %d)",
		tSmall, small, tWide, big, ratio, big*big/(small*small))
	if ratio > 3 {
		t.Fatalf("the same shapes cost %.2f× as much in the wide window; the cost follows the window again", ratio)
	}
}

// CircleRule allocates the shot list it returns and nothing else once a
// pooled fracturer has seen a window this size: the label grid, the crop
// buffers and the work lists come back from the pool. (Outside the race
// job: under -race sync.Pool drops a share of what is Put.)
func TestCircleRuleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m, cfg := suiteWindow(t, 192)
	CircleRule(m, cfg) // build the ladder, grow a fracturer
	const ceiling = 4
	if a := testing.AllocsPerRun(5, func() { CircleRule(m, cfg) }); a > ceiling {
		t.Fatalf("CircleRule allocates %v times per 192-px window, ceiling %d", a, ceiling)
	} else {
		t.Logf("CircleRule: %v allocations per 192-px window", a)
	}
}
