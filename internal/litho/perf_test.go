package litho

import (
	"fmt"
	"testing"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/gridkit"
)

// benchWindows are the windows the repository benchmark optimizes: the
// 96-px array window at 4 nm/px and the 128- and 192-px chip windows at
// 8 nm/px, with its kernel count.
var benchWindows = []struct {
	n      int
	tileNM float64
}{{96, 384}, {128, 1024}, {192, 1536}}

const benchKOpt = 4

// windowSim builds the production-optics simulator of an n-px window
// tileNM wide, and a mask/target pair with one feature in it.
func windowSim(t testing.TB, n int, tileNM float64) (*Simulator, *grid.Real, *grid.Real) {
	t.Helper()
	cfg := optics.Default()
	cfg.TileNM = tileNM
	s, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	s.KOpt = benchKOpt
	target, mask := grid.NewReal(n, n), grid.NewReal(n, n)
	for y := 3 * n / 8; y < 5*n/8; y++ {
		for x := 5 * n / 16; x < 11*n/16; x++ {
			target.Set(x, y, 1)
			mask.Set(x, y, 0.9)
		}
	}
	return s, mask, target
}

// alternate returns a copy of mask that differs from it in every row a
// pixel's box [x0, x1) × [y0, y1) covers. Timing LossGrad on two such
// masks in turn keeps loadMask transforming those rows, as an optimizer
// step that moved them would: on one mask it would transform none.
func alternate(mask *grid.Real, x0, x1, y0, y1 int) *grid.Real {
	m := gridkit.Clone(mask)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Data[y*m.W+x] = 0.5 * (m.Data[y*m.W+x] + 0.3)
		}
	}
	return m
}

// roiBox is the box of pixels within the Mosaic engine's default 120 nm
// of windowSim's feature: the rows a Mosaic step changes and the columns
// whose gradient it reads.
func roiBox(s *Simulator) (x0, x1, y0, y1 int) {
	n, m := s.N, int(120/s.DX)
	return max(0, 5*n/16-m), min(n, 11*n/16+m), max(0, 3*n/8-m), min(n, 5*n/8+m)
}

// Once the arena exists a LossGrad allocates nothing: no grid, no result
// struct.
func TestLossGradDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, w := range benchWindows {
		s, mask, target := windowSim(t, w.n, w.tileNM)
		f := func() { s.LossGrad(mask, target, 1, 1) }
		f() // build the arena, the plans and their pools
		if a := testing.AllocsPerRun(10, f); a != 0 {
			t.Errorf("LossGrad at %d px: %v allocs per run, want 0", w.n, a)
		}
	}
}

// The cost of a LossGrad follows the optical band, not the pixel count:
// the same 1536 nm window sampled twice as finely has four times the
// pixels and the same kernels, fields and simulation grid, so only the
// four pixel-grid transforms and the resist loop grow. With every kernel
// in play (KOpt 0, 24 per corner) the ratio reads 1.62–1.74 (1.74–1.79
// with numerics v3's resist loop, five runs each, alternated on one
// host); with the per-kernel work back on the pixel grid it is 4.5–4.9;
// the bound of 2.2 sits between. (At the benchmark's four kernels the
// pixel-grid half of the call weighs more: 2.8–3.0, and 3.0–3.1 under
// v3.) Minima of alternated runs,
// as in the fft and CircleRule guards. Each side alternates two masks that
// differ in every row, so every call transforms every mask row.
func TestLossGradCostTracksBandNotPixels(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing guard")
	}
	coarse, cm, ct := windowSim(t, 192, 1536)
	fine, fm, ft := windowSim(t, 384, 1536)
	coarse.KOpt, fine.KOpt = 0, 0
	if coarse.arenaFor(coarse.Focus).m != fine.arenaFor(fine.Focus).m {
		t.Fatal("the simulation grid depends on the pixel pitch")
	}
	cms := [2]*grid.Real{cm, alternate(cm, 0, 1, 0, 192)}
	fms := [2]*grid.Real{fm, alternate(fm, 0, 1, 0, 384)}
	i := 0
	a := func() { coarse.LossGrad(cms[i%2], ct, 1, 1) }
	b := func() { fine.LossGrad(fms[i%2], ft, 1, 1) }
	a()
	b()
	ta, tb := time.Duration(1<<62), time.Duration(1<<62)
	for i = 0; i < 15; i++ {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		ta, tb = min(ta, t1.Sub(t0)), min(tb, time.Since(t1))
	}
	ratio := float64(tb) / float64(ta)
	t.Logf("LossGrad, 24 kernels: %v at 192 px, %v at 384 px, ratio %.2f (pixel ratio 4)", ta, tb, ratio)
	if ratio >= 2.2 {
		t.Fatalf("four times the pixels cost %.2f× as much; the cost follows the pixel grid again", ratio)
	}
}

// BenchmarkLossGrad/<n> alternates two masks that differ in every row:
// the whole call, every mask row transformed. <n>/mosaic is what a Mosaic
// step pays: only the rows of the ROI change, and the gradient is read on
// the ROI's columns.
func BenchmarkLossGrad(b *testing.B) {
	for _, w := range benchWindows {
		s, mask, target := windowSim(b, w.n, w.tileNM)
		x0, x1, y0, y1 := roiBox(s)
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			masks := [2]*grid.Real{mask, alternate(mask, 0, 1, 0, w.n)}
			s.LossGrad(mask, target, 1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.LossGrad(masks[i%2], target, 1, 1)
			}
		})
		b.Run(fmt.Sprintf("%d/mosaic", w.n), func(b *testing.B) {
			masks := [2]*grid.Real{mask, alternate(mask, x0, x1, y0, y1)}
			s.LossGrad(mask, target, 1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.LossGradCols(masks[i%2], target, 1, 1, x0, x1)
			}
		})
	}
}

var sinkResult *Result

// The evaluation path: all 24 kernels of both sets on the 256-px grid.
func BenchmarkSimulate(b *testing.B) {
	b.Run("256", func(b *testing.B) {
		s, mask, _ := windowSim(b, 256, 2048)
		s.Simulate(mask)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = s.Simulate(mask)
		}
	})
}

var sinkSim *Simulator

// What a cold process pays before its first tile: both kernel sets built
// from scratch, bypassing the optics cache.
func BenchmarkNewCold(b *testing.B) {
	for _, tileNM := range []float64{1024, 1536, 2048} {
		b.Run(fmt.Sprintf("%gnm", tileNM), func(b *testing.B) {
			cfg := optics.Default()
			cfg.TileNM = tileNM
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := newWith(cfg, int(tileNM/8), optics.ComputeKernels)
				if err != nil {
					b.Fatal(err)
				}
				sinkSim = s
			}
		})
	}
}
