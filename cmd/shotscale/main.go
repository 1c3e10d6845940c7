// Command shotscale measures how fracturing cost scales with the mask
// grid resolution: the same physical case is optimized at several
// resolutions, then fractured both ways. Rectangular (Manhattanization)
// shot counts grow roughly linearly with resolution because every
// staircase step of a curvilinear boundary becomes a rectangle edge,
// while circular shot counts track the physical geometry and stay nearly
// flat — the core economics behind the circular e-beam writer (Figure 1),
// and the reason the paper's 1 nm/px rectangle counts exceed the ones
// this reproduction records at 4 nm/px.
//
// Usage:
//
//	shotscale [-case 4] [-grids 256,512,1024] [-iters 40]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"cfaopc/internal/fracture"
	"cfaopc/internal/ilt"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shotscale: ")
	var (
		caseID = flag.Int("case", 4, "benchmark case (1-10)")
		grids  = flag.String("grids", "256,512,1024", "comma-separated grid sizes")
		iters  = flag.Int("iters", 40, "ILT iterations per resolution")
	)
	flag.Parse()
	suite := layout.GenerateSuite()
	if *caseID < 1 || *caseID > len(suite) {
		log.Fatalf("-case %d: the suite is cases 1..%d", *caseID, len(suite))
	}
	l := suite[*caseID-1]

	fmt.Printf("%s (%d nm²): DevelSet mask fractured at each resolution\n", l.Name, l.Area())
	fmt.Printf("%8s %8s %12s %12s %10s %8s\n", "grid", "nm/px", "rect shots", "circ shots", "reduction", "time")
	for _, tok := range strings.Split(*grids, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("bad grid %q", tok)
		}
		start := time.Now()
		cfg := optics.Default()
		cfg.TileNM = float64(l.TileNM)
		sim, err := litho.New(cfg, n)
		if err != nil {
			log.Fatal(err)
		}
		sim.KOpt = 5
		target := l.Rasterize(n)

		iltCfg := ilt.DefaultConfig()
		iltCfg.Iterations = *iters
		iltCfg.MinFeaturePx = int(576 / (sim.DX * sim.DX))
		if iltCfg.MinFeaturePx < 2 {
			iltCfg.MinFeaturePx = 2
		}
		mask := (&ilt.LevelSet{Cfg: iltCfg}).Optimize(sim, target)

		rects := fracture.RectShots(mask, 1)
		circles := fracture.CircleRule(mask, fracture.DefaultCircleRuleConfig(sim.DX))
		red := float64(len(rects)) / float64(max(1, len(circles)))
		fmt.Printf("%8d %8.1f %12d %12d %9.1fx %8s\n",
			n, sim.DX, len(rects), len(circles), red, time.Since(start).Round(time.Second))
	}
}
