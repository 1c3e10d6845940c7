package core

import (
	"fmt"
	"math"
	"testing"

	"cfaopc/internal/grid"
)

// benchWindows are the chip windows of the repository benchmark at 8
// nm/px with the circle counts its stage split hands stage 2
// (core.circles.128 and .192 of `opcbench --trace 1`).
var benchWindows = []struct{ n, circles int }{{128, 114}, {192, 19}}

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
	sinkDense *Dense
	sinkGrads *Grads
)

// One stage-2 iteration is a Render, a litho.LossGrad and a Backward:
// these two are the part of it that is not the simulator.

func BenchmarkRender(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			cfg := DefaultConfig(8)
			p := benchCircles(w.n, w.circles, cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDense = Render(p, cfg, w.n, w.n, true)
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGrads = Backward(p, cfg, d, dLdM)
			}
		})
	}
}
