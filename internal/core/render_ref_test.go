package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
)

// denseRef is Dense as it was: no kept σ, no column span.
type denseRef struct {
	M          *grid.Real
	argmax     []int32
	qx, qy, qr []float64
}

// renderRef is Render as it was: a fresh grid per call, and sqrt + exp at
// every pixel of every circle's box, whatever its q.
func renderRef(p *Params, cfg Config, w, h int, quantize bool) *denseRef {
	cfg.validate()
	d := &denseRef{
		M:      grid.NewReal(w, h),
		argmax: make([]int32, w*h),
		qx:     make([]float64, p.Len()),
		qy:     make([]float64, p.Len()),
		qr:     make([]float64, p.Len()),
	}
	for i := 0; i < p.Len(); i++ {
		if quantize {
			d.qx[i] = opt.STERound(p.X[i], 0, float64(w-1))
			d.qy[i] = opt.STERound(p.Y[i], 0, float64(h-1))
			d.qr[i] = quantRadius(p.R[i], cfg.RMin, cfg.RMax)
		} else {
			d.qx[i] = p.X[i]
			d.qy[i] = p.Y[i]
			d.qr[i] = p.R[i]
		}
		cx, cy, cr, q := d.qx[i], d.qy[i], d.qr[i], p.Q[i]
		ext := cr + float64(cfg.Margin)
		x0, x1 := int(cx-ext), int(cx+ext)+1
		y0, y1 := int(cy-ext), int(cy+ext)+1
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 >= w {
			x1 = w - 1
		}
		if y1 >= h {
			y1 = h - 1
		}
		for y := y0; y <= y1; y++ {
			dy := float64(y) - cy
			for x := x0; x <= x1; x++ {
				dx := float64(x) - cx
				dist := math.Sqrt(dx*dx + dy*dy)
				v := q * litho.Sigmoid(cfg.Alpha*(cr-dist))
				idx := y*w + x
				if v > d.M.Data[idx] {
					d.M.Data[idx] = v
					d.argmax[idx] = int32(i + 1)
				}
			}
		}
	}
	return d
}

// backwardRef is Backward as it was: the winner's σ evaluated again.
func backwardRef(p *Params, cfg Config, d *denseRef, dLdM *grid.Real) *Grads {
	w := d.M.W
	g := &Grads{
		X: make([]float64, p.Len()),
		Y: make([]float64, p.Len()),
		R: make([]float64, p.Len()),
		Q: make([]float64, p.Len()),
	}
	for idx, am := range d.argmax {
		if am == 0 {
			continue
		}
		gv := dLdM.Data[idx]
		if gv == 0 {
			continue
		}
		i := int(am - 1)
		x, y := float64(idx%w), float64(idx/w)
		dx := x - d.qx[i]
		dy := y - d.qy[i]
		dist := math.Sqrt(dx*dx + dy*dy)
		f := litho.Sigmoid(cfg.Alpha * (d.qr[i] - dist))
		hfn := f * (1 - f)
		q := p.Q[i]

		// ∂M̄/∂q_i = f (Eq. 14).
		g.Q[i] += gv * f
		// ∂M̄/∂r_i = α·q·h (Eq. 13), gated by the STE indicator on r.
		g.R[i] += gv * cfg.Alpha * q * hfn * opt.STEGrad(p.R[i], cfg.RMin, cfg.RMax)
		// ∂M̄/∂x_i = α·q·h·(x−x'_i)/dist (Eq. 12), gated on x ∈ [0, W].
		if dist > 1e-9 {
			common := gv * cfg.Alpha * q * hfn / dist
			g.X[i] += common * dx * opt.STEGrad(p.X[i], 0, float64(d.M.W-1))
			g.Y[i] += common * dy * opt.STEGrad(p.Y[i], 0, float64(d.M.H-1))
		}
	}
	return g
}

// optimizeFromShotsRef is stage 2 as it was: a fresh Dense and Grads per
// step and the gradient inverted on every column. noneActive counts the
// steps that began with no circle at q > 0.
func optimizeFromShotsRef(e *CircleOpt, sim *litho.Simulator, target *grid.Real, seeds []geom.Circle) (res *Result, noneActive int) {
	e.Cfg.validate()
	p := &Params{}
	for _, c := range seeds {
		p.X = append(p.X, c.X)
		p.Y = append(p.Y, c.Y)
		p.R = append(p.R, c.R)
		p.Q = append(p.Q, 1) // q_i initialized to 1 for all circles
	}
	res = &Result{Params: p}
	n := p.Len()
	flat := make([]float64, 4*n)
	gradFlat := make([]float64, 4*n)
	pack := func() {
		copy(flat[0:n], p.X)
		copy(flat[n:2*n], p.Y)
		copy(flat[2*n:3*n], p.R)
		copy(flat[3*n:4*n], p.Q)
	}
	unpack := func() {
		copy(p.X, flat[0:n])
		copy(p.Y, flat[n:2*n])
		copy(p.R, flat[2*n:3*n])
		copy(p.Q, flat[3*n:4*n])
	}
	pack()
	adam := opt.NewAdam(4*n, e.Cfg.LR)

	for it := 0; it < e.Cfg.Iterations; it++ {
		active := false
		for _, q := range p.Q {
			active = active || q > 0
		}
		if !active {
			noneActive++
		}
		dense := renderRef(p, e.Cfg, sim.N, sim.N, !e.Cfg.DisableSTE)
		lg := sim.LossGrad(dense.M, target, e.Cfg.WL2, e.Cfg.WPVB)
		g := backwardRef(p, e.Cfg, dense, lg.GradM)

		// Sparsity regularizer L_s = Σ|q_i| (Eq. 17).
		sparsity := 0.0
		for i := 0; i < n; i++ {
			sparsity += math.Abs(p.Q[i])
			g.Q[i] += e.Cfg.Gamma * sign(p.Q[i])
		}
		res.LossHistory = append(res.LossHistory, lg.Loss+e.Cfg.Gamma*sparsity)

		copy(gradFlat[0:n], g.X)
		copy(gradFlat[n:2*n], g.Y)
		copy(gradFlat[2*n:3*n], g.R)
		copy(gradFlat[3*n:4*n], g.Q)
		adam.Step(flat, gradFlat)
		unpack()
	}

	res.Shots = p.ActiveShots(e.Cfg, sim.N, sim.N)
	res.Mask = geom.RasterizeCircles(sim.N, sim.N, res.Shots)
	return res, noneActive
}

// sameFloats asserts a == b element by element.
func sameFloats(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, the reference has %d", what, len(a), len(b))
	}
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("%s[%d] = %v, the reference's %v", what, i, a[i], b[i])
		}
	}
}

// renderCases are circle sets that exercise every branch render skips or
// keeps: circles with q ≤ 0 (zero, negative, between winners), overlaps
// where a weaker circle comes later and where it comes first, circles cut
// by each border and one wholly outside, off-lattice centres.
func renderCases(w int, rng *rand.Rand, cfg Config) map[string]*Params {
	cases := map[string]*Params{
		"overlap": {X: []float64{10, 14, 12.4}, Y: []float64{16, 16, 15.6}, R: []float64{4, 4, 5.2}, Q: []float64{0.6, 1.0, 0.8}},
		"q<=0":    {X: []float64{16, 16, 20}, Y: []float64{16, 17, 12}, R: []float64{5, 6, 3}, Q: []float64{0, -0.5, 0.7}},
		"border":  {X: []float64{0.4, float64(w) - 1.2, 15, -6, 15}, Y: []float64{15, 20, -0.3, 5, float64(w) + 0.4}, R: []float64{6, 4, 5, 3, 7}, Q: []float64{0.9, 1.1, 0.5, 1, 0.3}},
		"none":    {X: []float64{10, 20}, Y: []float64{10, 20}, R: []float64{4, 5}, Q: []float64{-0.1, 0}},
	}
	rnd := &Params{}
	for i := 0; i < 40; i++ {
		rnd.X = append(rnd.X, rng.Float64()*float64(w+8)-4)
		rnd.Y = append(rnd.Y, rng.Float64()*float64(w+8)-4)
		rnd.R = append(rnd.R, cfg.RMin+rng.Float64()*(cfg.RMax-cfg.RMin+2)-1)
		rnd.Q = append(rnd.Q, rng.Float64()*1.6-0.4)
	}
	cases["random"] = rnd
	return cases
}

// Render and Backward skip what cannot win and reuse the winner's σ, and
// still give the reference's dense mask, argmax and gradients, ==, with
// and without quantization; render into a Dense that already holds another
// set of circles gives the same.
func TestRenderBackwardMatchRef(t *testing.T) {
	const w = 40
	cfg := testCfg()
	rng := rand.New(rand.NewSource(29))
	dLdM := grid.NewReal(w, w)
	for i := range dLdM.Data {
		dLdM.Data[i] = rng.Float64()*2 - 1
	}
	dLdM.Data[17*w+16] = 0 // a won pixel with no gradient
	reused := &Dense{}
	for name, p := range renderCases(w, rng, cfg) {
		for _, quantize := range []bool{true, false} {
			label := fmt.Sprintf("%s/quantize=%v", name, quantize)
			want := renderRef(p, cfg, w, w, quantize)
			got := Render(p, cfg, w, w, quantize)
			reused.render(p, cfg, w, w, quantize)
			for _, d := range []*Dense{got, reused} {
				sameFloats(t, label+" M", d.M.Data, want.M.Data)
				for i, am := range want.argmax {
					if d.argmax[i] != am {
						t.Fatalf("%s: argmax[%d] = %d, the reference's %d", label, i, d.argmax[i], am)
					}
					if x := i % w; am != 0 && (x < d.x0 || x >= d.x1) {
						t.Fatalf("%s: pixel %d won outside the column span [%d, %d)", label, i, d.x0, d.x1)
					}
				}
				gw, gg := backwardRef(p, cfg, want, dLdM), Backward(p, cfg, d, dLdM)
				sameFloats(t, label+" ∂x", gg.X, gw.X)
				sameFloats(t, label+" ∂y", gg.Y, gw.Y)
				sameFloats(t, label+" ∂r", gg.R, gw.R)
				sameFloats(t, label+" ∂q", gg.Q, gw.Q)
			}
			if name == "none" && (got.x0 != 0 || got.x1 != 0) {
				t.Fatalf("%s: no circle with q > 0, yet the span is [%d, %d)", label, got.x0, got.x1)
			}
		}
	}
}

// Stage 2 with one Dense, one Grads and the gradient inverted on the
// circles' columns only equals the loop it replaced: every loss and every
// final parameter ==. The heavy-sparsity run drives every q through zero,
// so some of its steps have no active circle and an empty column span.
func TestOptimizeFromShotsMatchesRef(t *testing.T) {
	for _, gamma := range []float64{3.0 / 8, 1e4} {
		sim, target := circleOptSetup(t)
		refSim, _ := circleOptSetup(t)
		cfg := testCfg()
		cfg.Iterations = 16
		cfg.Gamma = gamma
		cfg.LR = 0.2
		seeds := []geom.Circle{{X: 28, Y: 20, R: 5}, {X: 29, Y: 31, R: 6}, {X: 28, Y: 43, R: 5}, {X: 12, Y: 30, R: 2}, {X: 63, Y: 2, R: 4}}
		e := &CircleOpt{Cfg: cfg}
		got := e.OptimizeFromShots(sim, target, seeds)
		want, noneActive := optimizeFromShotsRef(e, refSim, target, seeds)
		label := fmt.Sprintf("gamma=%g", gamma)
		sameFloats(t, label+" loss", got.LossHistory, want.LossHistory)
		sameFloats(t, label+" x", got.Params.X, want.Params.X)
		sameFloats(t, label+" y", got.Params.Y, want.Params.Y)
		sameFloats(t, label+" r", got.Params.R, want.Params.R)
		sameFloats(t, label+" q", got.Params.Q, want.Params.Q)
		if len(got.Shots) != len(want.Shots) {
			t.Fatalf("%s: %d shots, the reference %d", label, len(got.Shots), len(want.Shots))
		}
		t.Logf("%s: %d shots, %d of %d steps with no active circle", label, len(got.Shots), noneActive, cfg.Iterations)
		if gamma > 1 && noneActive == 0 {
			t.Fatalf("%s: every step had an active circle; the empty span is untested", label)
		}
	}
}
