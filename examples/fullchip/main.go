// Full-chip style flow: tile a layout larger than one simulation window
// into overlapping halo windows, run CircleOpt independently per window,
// and stitch the shot lists — the deployment pattern that scales CFAOPC
// beyond a single 2048 nm clip.
//
//	go run ./examples/fullchip
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"cfaopc/internal/core"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
)

func main() {
	// A 2048 nm "chip" holding four feature groups, one per quadrant.
	l := &layout.Layout{
		Name:   "chip",
		TileNM: 2048,
		Rects: []layout.Rect{
			{X: 300, Y: 260, W: 80, H: 400},
			{X: 460, Y: 260, W: 80, H: 400},
			{X: 1400, Y: 300, W: 320, H: 80},
			{X: 1400, Y: 460, W: 240, H: 80},
			{X: 320, Y: 1400, W: 72, H: 320},
			{X: 1350, Y: 1350, W: 300, H: 300},
		},
	}
	if err := l.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := flow.Config{
		GridN:       256, // 8 nm/px across the chip
		CorePx:      128, // four cores
		HaloPx:      32,  // 256 nm optical context
		Optics:      optics.Default(),
		KOpt:        4,
		TileWorkers: -1, // one window per core; shots identical at any count
		Optimize: func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			coCfg := core.DefaultConfig(sim.DX)
			coCfg.Iterations = 30
			return (&core.CircleOpt{Cfg: coCfg, InitIterations: 10}).Optimize(sim, target).Shots
		},
	}
	res, err := flow.Run(l, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized %d windows → %d total shots (peak flow memory ≈ %.1f MB)\n",
		res.Tiles, len(res.Shots), float64(res.PeakBytes)/(1<<20))
	for _, ts := range res.TileStats {
		fmt.Printf("  tile %d core(%3d,%3d): occupied=%-5v shots %3d  wall %s (raster %s)\n",
			ts.Index, ts.CX, ts.CY, ts.Occupied, ts.Shots, ts.Wall.Round(time.Millisecond),
			ts.RasterWall.Round(time.Microsecond))
	}

	// Score the stitched shot list with a full-chip simulation.
	oCfg := optics.Default()
	oCfg.TileNM = float64(l.TileNM)
	sim, err := litho.New(oCfg, cfg.GridN)
	if err != nil {
		log.Fatal(err)
	}
	metrics.ScoreShots(os.Stdout, "full-chip metrics", l, sim, res.Shots, fracture.RMinNM, fracture.RMaxNM)
	if v := metrics.CheckCircleSpacing(res.Shots, sim.DX, 40); len(v) == 0 {
		fmt.Println("MRC spacing: clean")
	} else {
		fmt.Printf("MRC spacing: %d narrow gaps (e.g. %s)\n", len(v), v[0].Reason)
	}
}
