// Package core implements the paper's primary contribution: CircleOpt, the
// two-stage optimization-based method for circular fracturing-aware OPC
// (Section 4).
//
// Stage 1 runs a few pixel-level MOSAIC ILT steps to rough out mask shapes
// and SRAFs. Stage 2 reparameterizes the rough mask into sparse circles
// (x_i, y_i, r_i, q_i) via Algorithm 1, renders them to a dense mask
// through the differentiable circle-to-pixel transform
//
//	M̄(x,y) = max_i q_i · σ(α·(r'_i − ‖(x,y) − (x'_i, y'_i)‖))     (Eq. 10–11)
//
// with straight-through estimators quantizing x, y, r (Eq. 7–9), and
// optimizes all 4n circle parameters by Adam against the lithography loss
// L2 + PVB + γ·Σ|q_i| using the hand-derived gradients of Eq. 12–14. The
// final mask is the union of all circles with q_i > 0.5, which satisfies
// the circular fracturing constraint by construction: every circle is one
// shot.
package core

import (
	"fmt"
	"math"

	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
)

// Params is the sparse circular representation: parallel arrays of circle
// centers, radii (pixels, continuous during optimization) and activations.
type Params struct {
	X, Y, R, Q []float64
}

// Len returns the number of circles.
func (p *Params) Len() int { return len(p.X) }

// ActiveShots returns the quantized circles whose activation exceeds the
// threshold — the final shot list (one circle = one writer shot).
func (p *Params) ActiveShots(cfg Config, w, h int) []geom.Circle {
	var shots []geom.Circle
	for i := range p.X {
		if p.Q[i] > cfg.QThreshold {
			shots = append(shots, geom.Circle{
				X: opt.STERound(p.X[i], 0, float64(w-1)),
				Y: opt.STERound(p.Y[i], 0, float64(h-1)),
				R: quantRadius(p.R[i], cfg.RMin, cfg.RMax),
			})
		}
	}
	return shots
}

// quantRadius quantizes a radius to the integer pixel lattice while
// keeping it inside [rMin, rMax] even when the bounds are fractional (the
// paper's bounds are integers at 1 nm/px; at coarser grids Round(Clip(x))
// alone could overshoot rMax by up to half a pixel and violate MRC).
func quantRadius(r, rMin, rMax float64) float64 {
	q := opt.STERound(r, rMin, rMax)
	if q < rMin {
		q = math.Ceil(rMin)
	}
	if q > rMax {
		q = math.Floor(rMax)
	}
	if q < 1 {
		q = 1
	}
	return q
}

// Config holds the CircleOpt hyper-parameters. Lengths are in pixels of
// the simulation grid.
type Config struct {
	Alpha      float64 // window steepness (paper: 8 at 1 nm/px — a ~1 px transition band, so kept in pixel units)
	Gamma      float64 // sparsity regularizer weight (paper: 3)
	LR         float64 // Adam step size (paper: 0.1)
	Iterations int     // stage-2 circle-level steps
	QThreshold float64 // activation cutoff for the final mask (paper: 0.5)
	RMin, RMax float64 // radius bounds in px
	Margin     int     // gradient window margin beyond each circle's radius
	WL2, WPVB  float64 // litho loss weights
	// DisableSTE renders from the continuous parameters during
	// optimization (quantizing only the final shot list) instead of
	// passing x, y, r through the straight-through estimator each forward
	// pass. Used by the ablation benches to measure what STE buys.
	DisableSTE bool
}

// DefaultConfig returns the paper's hyper-parameters converted to a grid
// with dxNM nanometers per pixel. The sparsity weight γ competes against
// litho-loss gradients whose scale shrinks on coarser grids, so the
// paper's γ=3 at 1 nm/px is rescaled as γ=3/dx — calibrated empirically at
// 4 nm/px to reproduce the paper's ~10% Table-3 shot reduction at minor
// quality cost, and exact at the paper's own resolution.
func DefaultConfig(dxNM float64) Config {
	return Config{
		Alpha:      8,
		Gamma:      3 / dxNM,
		LR:         0.1,
		Iterations: 60,
		QThreshold: 0.5,
		RMin:       12 / dxNM,
		RMax:       76 / dxNM,
		Margin:     3,
		WL2:        1,
		WPVB:       1,
	}
}

func (c Config) validate() {
	if c.Alpha <= 0 || c.LR <= 0 || c.Iterations <= 0 || c.RMin <= 0 ||
		c.RMax < c.RMin || c.QThreshold <= 0 || c.Margin < 0 {
		panic(fmt.Sprintf("core: invalid config %+v", c))
	}
}

// Dense is the rendered dense mask plus the argmax bookkeeping the
// backward pass routes gradients through.
type Dense struct {
	M      *grid.Real
	argmax []int32   // 1-based winning circle per pixel; 0 = background
	sig    []float64 // the winning circle's σ per pixel, where argmax ≠ 0
	// quantized parameter values used in the forward pass
	qx, qy, qr []float64
	// x0, x1 bound the columns the circles with q > 0 can paint, [x0, x1):
	// the only columns Backward reads dL/dM on.
	x0, x1 int
}

// Render executes the differentiable circle-to-pixel transform. With
// quantize true (the real pipeline), x, y, r pass through the
// straight-through estimator before rendering; tests disable it to allow
// finite-difference checks of the window gradients.
func Render(p *Params, cfg Config, w, h int, quantize bool) *Dense {
	cfg.validate()
	d := &Dense{}
	d.render(p, cfg, w, h, quantize)
	return d
}

// render is Render into d, whose buffers are reused when their sizes fit.
// Only pixels a circle can win are evaluated: a circle with q ≤ 0 paints
// q·σ ≤ 0, which never beats the background, and a pixel already at
// M ≥ q cannot be won by q·σ ≤ q. The σ of each win is kept for Backward.
func (d *Dense) render(p *Params, cfg Config, w, h int, quantize bool) {
	if d.M == nil || d.M.W != w || d.M.H != h {
		d.M, d.argmax, d.sig = grid.NewReal(w, h), make([]int32, w*h), make([]float64, w*h)
	}
	clear(d.M.Data)
	clear(d.argmax)
	if n := p.Len(); len(d.qx) != n {
		d.qx, d.qy, d.qr = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	d.x0, d.x1 = w, 0
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
		if q <= 0 {
			continue
		}
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
		d.x0, d.x1 = min(d.x0, x0), max(d.x1, x1+1)
		for y := y0; y <= y1; y++ {
			dy := float64(y) - cy
			for x := x0; x <= x1; x++ {
				idx := y*w + x
				if q <= d.M.Data[idx] {
					continue
				}
				dx := float64(x) - cx
				dist := math.Sqrt(dx*dx + dy*dy)
				f := litho.Sigmoid(cfg.Alpha * (cr - dist))
				if v := q * f; v > d.M.Data[idx] {
					d.M.Data[idx] = v
					d.argmax[idx] = int32(i + 1)
					d.sig[idx] = f
				}
			}
		}
	}
	d.x0 = min(d.x0, d.x1) // no box, or only boxes clipped away: empty
}

// Grads holds ∂L/∂(x, y, r, q) for every circle.
type Grads struct {
	X, Y, R, Q []float64
}

// Backward routes a dense-mask gradient dLdM back to the circle
// parameters via the argmax bookkeeping and Equations (12)–(14). The
// straight-through estimators contribute their indicator factors
// (Equation (9)) on the raw parameter values.
func Backward(p *Params, cfg Config, d *Dense, dLdM *grid.Real) *Grads {
	n := p.Len()
	g := &Grads{X: make([]float64, n), Y: make([]float64, n), R: make([]float64, n), Q: make([]float64, n)}
	g.backward(p, cfg, d, dLdM)
	return g
}

// backward is Backward adding into g, whose slices hold p.Len() zeros. Each
// pixel's window value f is the σ render kept for it.
func (g *Grads) backward(p *Params, cfg Config, d *Dense, dLdM *grid.Real) {
	w := d.M.W
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
		f := d.sig[idx]
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
}

// Result summarizes one CircleOpt run.
type Result struct {
	Mask   *grid.Real    // final binary mask (union of active shots)
	Shots  []geom.Circle // the shot list
	Params *Params       // final continuous parameters
	// Loss history (total differentiable loss per iteration), useful for
	// convergence diagnostics and the ablation benches.
	LossHistory []float64
}

// CircleOpt is the optimization-based CFAOPC method.
type CircleOpt struct {
	Cfg Config
	// InitIterations controls the stage-1 MOSAIC warm-up (paper: "only a
	// few steps"); default 12.
	InitIterations int
	// RuleCfg fractures the stage-1 mask into the initial circles; zero
	// value means the paper defaults at the simulator's resolution.
	RuleCfg fracture.CircleRuleConfig
}

// Name identifies the method in reports.
func (e *CircleOpt) Name() string { return "CircleOpt" }

// Optimize runs the full two-stage pipeline on target.
func (e *CircleOpt) Optimize(sim *litho.Simulator, target *grid.Real) *Result {
	e.Cfg.validate()
	initIters := e.InitIterations
	if initIters <= 0 {
		initIters = 12
	}

	// Stage 1: pixel-level initialization (Section 4.1) — simplest MOSAIC,
	// L2 + PVB loss, shifted-sigmoid binarization, a few steps only.
	mosaicCfg := ilt.DefaultConfig()
	mosaicCfg.Iterations = initIters
	mosaicCfg.WL2 = e.Cfg.WL2
	mosaicCfg.WPVB = e.Cfg.WPVB
	rough := (&ilt.Mosaic{Cfg: mosaicCfg}).Optimize(sim, target)

	// Sparse circular reparameterization (Section 4.2) via Algorithm 1.
	ruleCfg := e.RuleCfg
	if ruleCfg.SampleDist == 0 {
		ruleCfg = fracture.DefaultCircleRuleConfig(sim.DX)
	}
	// Clamp rule radii into the optimizer's own bounds.
	if ruleCfg.RMin < e.Cfg.RMin {
		ruleCfg.RMin = e.Cfg.RMin
	}
	if ruleCfg.RMax > e.Cfg.RMax {
		ruleCfg.RMax = e.Cfg.RMax
	}
	seeds := fracture.CircleRule(rough, ruleCfg)
	if len(seeds) == 0 {
		// Degenerate stage 1 (e.g. empty target): fall back to seeding the
		// target directly so stage 2 still has parameters to optimize.
		seeds = fracture.CircleRule(target, ruleCfg)
	}
	return e.OptimizeFromShots(sim, target, seeds)
}

// OptimizeFromShots runs stage 2 (the circle-level ILT) from an explicit
// seed shot list, skipping the pixel-level initialization. This is the
// warm-restart entry point: re-optimizing an edited layout, refining a
// CircleRule fracturing, or resuming a tiled flow's window from its
// previous shots.
func (e *CircleOpt) OptimizeFromShots(sim *litho.Simulator, target *grid.Real, seeds []geom.Circle) *Result {
	e.Cfg.validate()
	p := &Params{}
	for _, c := range seeds {
		p.X = append(p.X, c.X)
		p.Y = append(p.Y, c.Y)
		p.R = append(p.R, c.R)
		p.Q = append(p.Q, 1) // q_i initialized to 1 for all circles
	}
	res := &Result{Params: p}
	if p.Len() == 0 {
		res.Mask = grid.NewReal(sim.N, sim.N)
		return res
	}

	// Stage 2: pixel-to-circle optimization.
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
	res.LossHistory = make([]float64, 0, e.Cfg.Iterations)

	// One dense mask serves the whole run, the gradients accumulate in
	// gradFlat itself, and the simulator inverts the gradient only on the
	// columns Backward reads.
	dense := &Dense{}
	g := &Grads{X: gradFlat[0:n], Y: gradFlat[n : 2*n], R: gradFlat[2*n : 3*n], Q: gradFlat[3*n : 4*n]}
	for it := 0; it < e.Cfg.Iterations; it++ {
		dense.render(p, e.Cfg, sim.N, sim.N, !e.Cfg.DisableSTE)
		lg := sim.LossGradCols(dense.M, target, e.Cfg.WL2, e.Cfg.WPVB, dense.x0, dense.x1)
		clear(gradFlat)
		g.backward(p, e.Cfg, dense, lg.GradM)

		// Sparsity regularizer L_s = Σ|q_i| (Eq. 17).
		sparsity := 0.0
		for i := 0; i < n; i++ {
			sparsity += math.Abs(p.Q[i])
			g.Q[i] += e.Cfg.Gamma * sign(p.Q[i])
		}
		res.LossHistory = append(res.LossHistory, lg.Loss+e.Cfg.Gamma*sparsity)
		adam.Step(flat, gradFlat)
		unpack()
		opt.Beat(sim.Ctx, it, lg.Loss+e.Cfg.Gamma*sparsity)
	}

	res.Shots = p.ActiveShots(e.Cfg, sim.N, sim.N)
	res.Mask = geom.RasterizeCircles(sim.N, sim.N, res.Shots)
	return res
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
