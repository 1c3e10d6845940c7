// Custom lithography models: build SOCS kernel sets for different
// illumination settings from first principles and study how the process
// window of one mask changes — the substrate the paper takes from the
// ICCAD-2013 contest kit, exercised directly.
//
//	go run ./examples/customlitho
package main

import (
	"fmt"
	"log"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

func main() {
	const n = 128
	target := grid.NewReal(n, n)
	for y := 34; y < 94; y++ {
		for x := 54; x < 74; x++ { // 80 nm bar on a 512 nm tile
			target.Set(x, y, 1)
		}
	}

	conditions := []struct {
		name string
		mod  func(*optics.Config)
	}{
		{"annular 0.5-0.8 (default)", func(c *optics.Config) {}},
		{"annular 0.7-0.9 (high sigma)", func(c *optics.Config) { c.SigmaIn, c.SigmaOut = 0.7, 0.9 }},
		{"conventional 0-0.6", func(c *optics.Config) { c.SigmaIn, c.SigmaOut = 0, 0.6 }},
		{"NA 1.20 (lower resolution)", func(c *optics.Config) { c.NA = 1.20 }},
		{"50 nm defocus corner", func(c *optics.Config) { c.DefocusNM = 50 }},
	}

	fmt.Println("process-window analysis of the same 80 nm bar mask:")
	fmt.Printf("%-30s %10s %10s %10s\n", "condition", "L2(nm²)", "PVB(nm²)", "kernels")
	for _, cond := range conditions {
		cfg := optics.Default()
		cfg.TileNM = 512
		cond.mod(&cfg)
		sim, err := litho.New(cfg, n)
		if err != nil {
			log.Fatal(err)
		}
		res := sim.Simulate(target) // print the target as its own mask
		l2, pvb := 0, 0
		for i := range target.Data {
			if (res.ZNom.Data[i] > 0.5) != (target.Data[i] > 0.5) {
				l2++
			}
			if (res.ZMax.Data[i] > 0.5) != (res.ZMin.Data[i] > 0.5) {
				pvb++
			}
		}
		dx2 := sim.DX * sim.DX
		fmt.Printf("%-30s %10.0f %10.0f %10d\n",
			cond.name, float64(l2)*dx2, float64(pvb)*dx2, len(sim.Focus.Kernels))
	}

	// The kernel spectra themselves are inspectable: show the energy
	// distribution of the default condition's top kernels.
	cfg := optics.Default()
	cfg.TileNM = 512
	set, err := optics.CachedKernels(cfg, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSOCS eigenvalue spectrum (relative):")
	for i, k := range set.Kernels {
		if i >= 8 {
			fmt.Printf("  … %d more kernels\n", len(set.Kernels)-8)
			break
		}
		bar := ""
		for j := 0; j < int(40*k.Weight/set.Kernels[0].Weight); j++ {
			bar += "#"
		}
		fmt.Printf("  λ%-2d %-40s %.4f\n", i, bar, k.Weight/set.Kernels[0].Weight)
	}
}
