// Command kernelinfo inspects the SOCS optical kernels computed from an
// imaging condition: eigenvalue spectrum, cumulative energy capture, and
// optional PNG renders of each kernel's spatial intensity — the
// diagnostics one uses to choose how many kernels an optimization loop
// needs.
//
// Usage:
//
//	kernelinfo [-na 1.35] [-sigma-in 0.5] [-sigma-out 0.8] [-defocus] [-png dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/cmplx"
	"os"
	"path/filepath"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kernelinfo: ")
	var (
		tile     = flag.Float64("tile", 2048, "tile size (nm)")
		na       = flag.Float64("na", 1.35, "numerical aperture")
		sigmaIn  = flag.Float64("sigma-in", 0.5, "annular source inner sigma")
		sigmaOut = flag.Float64("sigma-out", 0.8, "annular source outer sigma")
		defocus  = flag.Bool("defocus", false, "apply the defocus aberration")
		defocusZ = flag.Float64("defocus-nm", 25, "defocus distance (nm)")
		k        = flag.Int("k", 24, "kernels to compute")
		pngDir   = flag.String("png", "", "write per-kernel spatial intensity PNGs here")
		pngGrid  = flag.Int("png-grid", 128, "PNG render grid")
	)
	flag.Parse()

	cfg := optics.Default()
	cfg.TileNM = *tile
	cfg.NA = *na
	cfg.SigmaIn = *sigmaIn
	cfg.SigmaOut = *sigmaOut
	cfg.DefocusNM = *defocusZ
	cfg.NumKernels = *k

	set, err := optics.CachedKernels(cfg, *defocus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("condition: λ=%gnm NA=%g σ=[%g,%g] tile=%gnm defocus=%v\n",
		cfg.Wavelength, cfg.NA, cfg.SigmaIn, cfg.SigmaOut, cfg.TileNM, *defocus)
	fmt.Printf("kernels: %d, frequency support half-width: %d bins\n\n",
		len(set.Kernels), set.Kernels[0].Half)

	total := 0.0
	for _, kn := range set.Kernels {
		total += kn.Weight
	}
	fmt.Printf("%4s %12s %10s %10s\n", "k", "weight", "rel", "cumul")
	cum := 0.0
	for i, kn := range set.Kernels {
		cum += kn.Weight
		fmt.Printf("%4d %12.6g %10.4f %10.4f\n", i, kn.Weight, kn.Weight/set.Kernels[0].Weight, cum/total)
	}

	if *pngDir == "" {
		return
	}
	if err := os.MkdirAll(*pngDir, 0o755); err != nil {
		log.Fatal(err)
	}
	n := *pngGrid
	for i := range set.Kernels {
		kn := &set.Kernels[i]
		// Spatial kernel: inverse transform of the compact spectrum
		// embedded in an n×n frequency grid, fftshifted for display.
		freq := grid.NewComplex(n, n)
		for by := -kn.Half; by <= kn.Half; by++ {
			for bx := -kn.Half; bx <= kn.Half; bx++ {
				v := kn.At(bx, by)
				if v == 0 {
					continue
				}
				freq.Set((bx+n)%n, (by+n)%n, v)
			}
		}
		fft.Inverse2D(freq)
		img := grid.NewReal(n, n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				// Center the kernel for viewing.
				sx, sy := (x+n/2)%n, (y+n/2)%n
				img.Set(x, y, cmplx.Abs(freq.At(sx, sy)))
			}
		}
		path := filepath.Join(*pngDir, fmt.Sprintf("kernel_%02d.png", i))
		if err := grid.GridPNG(img, path); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nwrote %d kernel renders to %s/\n", len(set.Kernels), *pngDir)
}
