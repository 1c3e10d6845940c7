package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
	"cfaopc/internal/optics"
)

// benchWindows are the chip windows of the repository benchmark at 8
// nm/px with the circle counts its stage split hands stage 2
// (core.circles.128 and .192 of `opcbench --trace 1`).
var benchWindows = []struct{ n, circles int }{{128, 114}, {192, 19}}

// stage2Setup is a stage-2 problem on an n-px chip window at 8 nm/px with
// the benchmark's kernel count: benchCircles as seeds, their union as the
// target.
func stage2Setup(tb testing.TB, n, circles int) (*litho.Simulator, *grid.Real, []geom.Circle) {
	tb.Helper()
	cfg := optics.Default()
	cfg.TileNM = 8 * float64(n)
	sim, err := litho.New(cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	sim.KOpt = 4
	p := benchCircles(n, circles, DefaultConfig(8))
	seeds := p.ActiveShots(DefaultConfig(8), n, n)
	return sim, geom.RasterizeCircles(n, n, seeds), seeds
}

// A stage-2 run of ten steps per window: render, LossGrad on the circles'
// columns, backward, sparsity and Adam.
func BenchmarkCircleOptStage2(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			sim, target, seeds := stage2Setup(b, w.n, w.circles)
			cfg := DefaultConfig(8)
			cfg.Iterations = 10
			e := &CircleOpt{Cfg: cfg}
			e.OptimizeFromShots(sim, target, seeds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult = e.OptimizeFromShots(sim, target, seeds)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*cfg.Iterations), "ms/iter")
		})
	}
}

// stepBytes runs an optimizer of iters steps on sim and returns what a warm
// step allocates: the bytes between the heartbeats of its second and last
// steps, over the steps between them. The collector is off meanwhile, so
// it cannot empty the pools the transforms draw their scratch from, and
// there is one P, as testing.AllocsPerRun has: MemStats is process-wide,
// and with two a runtime goroutine's bytes, or a pool miss after the run
// moved Ps, read as the step's.
func stepBytes(sim *litho.Simulator, iters int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var second, last runtime.MemStats
	sim.Ctx = opt.WithProgress(context.Background(), func(it int, _ float64, _ time.Time) {
		switch it {
		case 1:
			runtime.ReadMemStats(&second)
		case iters - 1:
			runtime.ReadMemStats(&last)
		}
	})
	defer func() { sim.Ctx = nil }()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	return float64(last.TotalAlloc-second.TotalAlloc) / float64(iters-2)
}

// A warm Mosaic step and a warm stage-2 step allocate nothing: the mask,
// the latent parameters and their gradient, the dense render and the
// circle gradients are the run's own, and LossGrad's buffers are the
// simulator's. (The window here is 64 px, a 32 KB grid.)
func TestOptimizerStepsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	sim, target := circleOptSetup(t)
	const iters = 8
	mcfg := ilt.DefaultConfig()
	mcfg.Iterations = iters
	mosaic := stepBytes(sim, iters, func() { (&ilt.Mosaic{Cfg: mcfg}).Optimize(sim, target) })
	seeds := []geom.Circle{{X: 28, Y: 20, R: 5}, {X: 29, Y: 31, R: 6}, {X: 28, Y: 43, R: 5}}
	cfg := testCfg()
	cfg.Iterations = iters
	stage2 := stepBytes(sim, iters, func() { (&CircleOpt{Cfg: cfg}).OptimizeFromShots(sim, target, seeds) })
	t.Logf("bytes per warm step: Mosaic %.0f, stage 2 %.0f", mosaic, stage2)
	if mosaic != 0 || stage2 != 0 {
		t.Fatalf("a warm step allocates %.0f B (Mosaic) and %.0f B (stage 2), want 0", mosaic, stage2)
	}
}

// benchCircles lays the given number of mid-radius, fully active circles
// on a square lattice over an n-px window, centres off the pixel lattice
// so the straight-through rounding has work to do.
func benchCircles(n, circles int, cfg Config) *Params {
	side := int(math.Ceil(math.Sqrt(float64(circles))))
	pitch := float64(n) / float64(side)
	p := &Params{}
	for i := 0; i < circles; i++ {
		p.X = append(p.X, (float64(i%side)+0.5)*pitch+0.3)
		p.Y = append(p.Y, (float64(i/side)+0.5)*pitch-0.3)
		p.R = append(p.R, (cfg.RMin+cfg.RMax)/2+0.2)
		p.Q = append(p.Q, 0.9)
	}
	return p
}

var (
	sinkDense  *Dense
	sinkGrads  *Grads
	sinkResult *Result
)

// One stage-2 iteration is a render, a litho.LossGrad and a backward:
// these two are the part of it that is not the simulator. Like stage 2,
// the render reuses one Dense.

func BenchmarkRender(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			cfg := DefaultConfig(8)
			p := benchCircles(w.n, w.circles, cfg)
			sinkDense = Render(p, cfg, w.n, w.n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkDense.render(p, cfg, w.n, w.n, true)
			}
		})
	}
}

func BenchmarkBackward(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			cfg := DefaultConfig(8)
			p := benchCircles(w.n, w.circles, cfg)
			d := Render(p, cfg, w.n, w.n, true)
			dLdM := grid.NewReal(w.n, w.n)
			for i := range dLdM.Data {
				dLdM.Data[i] = float64(i%7) - 3.5 // never zero: no pixel is skipped
			}
			sinkGrads = Backward(p, cfg, d, dLdM)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGrads.backward(p, cfg, d, dLdM) // adds on: the time, not the values, is the point
			}
		})
	}
}
