// Command evalmask scores an existing circular shot list against a target
// layout: it reconstructs the mask from the shots, simulates the three
// process corners, and reports L2 / PVB / EPE / #Shot plus MRC status
// against the mask rule cfaopc checks (radii in [12, 76] nm). It exits 1
// when the shot list is invalid or breaks the rule.
//
// Usage:
//
//	evalmask -layout case1.glp|case1.gds -shots case1_shots.csv [-grid 256]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"cfaopc/internal/fracture"
	"cfaopc/internal/gds"
	"cfaopc/internal/geom"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
)

// validateShots rejects shot lists that would silently score as garbage:
// non-finite coordinates or radii, non-positive radii, and centers
// outside the simulation grid. Coordinates are in grid pixels.
func validateShots(shots []geom.Circle, gridN int) error {
	if len(shots) == 0 {
		return fmt.Errorf("shot list is empty")
	}
	for i, s := range shots {
		if math.IsNaN(s.X) || math.IsInf(s.X, 0) ||
			math.IsNaN(s.Y) || math.IsInf(s.Y, 0) ||
			math.IsNaN(s.R) || math.IsInf(s.R, 0) {
			return fmt.Errorf("shot %d is not finite: %+v", i, s)
		}
		if s.R <= 0 {
			return fmt.Errorf("shot %d has non-positive radius %g px", i, s.R)
		}
		if s.X < 0 || s.X >= float64(gridN) || s.Y < 0 || s.Y >= float64(gridN) {
			return fmt.Errorf("shot %d center (%g, %g) px outside the %d px grid (wrong -grid or wrong layout?)",
				i, s.X, s.Y, gridN)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("evalmask: ")
	var (
		layoutPath = flag.String("layout", "", "target layout (.glp or .gds)")
		shotsPath  = flag.String("shots", "", "circular shot list (.csv)")
		gridN      = flag.Int("grid", 256, "simulation grid")
	)
	flag.Parse()
	if *layoutPath == "" || *shotsPath == "" {
		log.Fatal("need -layout and -shots")
	}

	l, err := gds.ReadFile(*layoutPath)
	if err != nil {
		log.Fatal(err)
	}

	cfg := optics.Default()
	cfg.TileNM = float64(l.TileNM)
	sim, err := litho.New(cfg, *gridN)
	if err != nil {
		log.Fatal(err)
	}

	sf, err := os.Open(*shotsPath)
	if err != nil {
		log.Fatal(err)
	}
	shots, err := fracture.ReadShotsCSV(sf, sim.DX)
	sf.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := validateShots(shots, sim.N); err != nil {
		log.Fatalf("invalid shot list %s: %v", *shotsPath, err)
	}

	if len(metrics.ScoreShots(os.Stdout, l.Name, l, sim, shots, fracture.RMinNM, fracture.RMaxNM).MRC) > 0 {
		os.Exit(1)
	}
}
