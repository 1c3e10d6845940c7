// Quickstart: optimize a single contact-bar target with CircleOpt and
// print the shot list and quality metrics.
//
//	go run ./examples/quickstart
//
// Everything runs on a small 512 nm tile (128×128 px, 4 nm/px) so the
// whole pipeline — kernel synthesis, stage-1 pixel ILT, circle-level
// optimization, evaluation — finishes in a few seconds on a laptop.
package main

import (
	"fmt"
	"log"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
)

func main() {
	// 1. Imaging condition: ArF immersion with annular illumination on a
	//    small tile. Kernels are computed from first principles.
	cfg := optics.Default()
	cfg.TileNM = 512
	const n = 128 // 4 nm/px
	sim, err := litho.New(cfg, n)
	if err != nil {
		log.Fatal(err)
	}
	sim.KOpt = 5 // truncated kernel set inside the optimization loop

	// 2. Target: an 80×240 nm vertical bar with a 60 nm neighbor.
	target := grid.NewReal(n, n)
	bar := func(x0, y0, wNM, hNM int) {
		for y := y0; y < y0+hNM/4; y++ {
			for x := x0; x < x0+wNM/4; x++ {
				target.Set(x, y, 1)
			}
		}
	}
	bar(40, 34, 80, 240)
	bar(70, 34, 60, 240)

	// 3. CircleOpt: stage-1 MOSAIC init, then circle-level ILT with the
	//    paper's hyper-parameters (α=8, γ=3, step 0.1, R ∈ [12, 76] nm).
	coCfg := core.DefaultConfig(sim.DX)
	coCfg.Iterations = 40
	e := &core.CircleOpt{Cfg: coCfg, InitIterations: 10}
	res := e.Optimize(sim, target)

	// 4. Evaluate at the three process corners with the full kernel set.
	simRes := sim.Simulate(res.Mask)
	l2px := 0
	for i := range target.Data {
		if (simRes.ZNom.Data[i] > 0.5) != (target.Data[i] > 0.5) {
			l2px++
		}
	}
	pvbPx := 0
	for i := range simRes.ZMax.Data {
		if (simRes.ZMax.Data[i] > 0.5) != (simRes.ZMin.Data[i] > 0.5) {
			pvbPx++
		}
	}
	fmt.Printf("CircleOpt finished: %d shots\n", len(res.Shots))
	fmt.Printf("  L2  = %.0f nm² (%d px)\n", float64(l2px)*sim.DX*sim.DX, l2px)
	fmt.Printf("  PVB = %.0f nm² (%d px)\n", float64(pvbPx)*sim.DX*sim.DX, pvbPx)
	fmt.Printf("  loss %.0f → %.0f over %d iterations\n",
		res.LossHistory[0], res.LossHistory[len(res.LossHistory)-1], len(res.LossHistory))

	// 5. The shot list is the manufacturable artifact: one circle = one
	//    e-beam flash. MRC is a per-shot radius check.
	for i, s := range res.Shots {
		fmt.Printf("  shot %2d: center (%4.0f, %4.0f) nm, radius %3.0f nm\n",
			i, s.X*sim.DX, s.Y*sim.DX, s.R*sim.DX)
		if i == 7 && len(res.Shots) > 9 {
			fmt.Printf("  … %d more\n", len(res.Shots)-8)
			break
		}
	}
	if v := metrics.CheckCircleMRC(res.Shots, sim.DX, fracture.RMinNM, fracture.RMaxNM); len(v) == 0 {
		fmt.Println("MRC: clean")
	} else {
		fmt.Printf("MRC: %d violations\n", len(v))
	}
}
