package litho

import (
	"fmt"
	"math"
	"sort"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// Gauge is a critical-dimension measurement site: the printed run length
// along a horizontal cut at row Y between columns X1 and X2 (pixels).
type Gauge struct {
	X1, X2, Y int
}

// MeasureCD returns the printed critical dimension (in pixels) along the
// gauge: the longest contiguous printed run on the cut. Zero means the
// feature failed to print.
func MeasureCD(z *grid.Real, g Gauge) float64 {
	if g.Y < 0 || g.Y >= z.H {
		return 0
	}
	best, cur := 0, 0
	for x := g.X1; x <= g.X2 && x < z.W; x++ {
		if x < 0 {
			continue
		}
		if z.Data[g.Y*z.W+x] > 0.5 {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return float64(best)
}

// PWPoint is one condition of a process-window matrix.
type PWPoint struct {
	DefocusNM float64
	Dose      float64
	CDnm      float64 // measured CD (0 = feature lost)
	InSpec    bool    // CD within ±Tolerance of the nominal CD
}

// PWConfig controls the dose–defocus sweep.
type PWConfig struct {
	DefocusNM []float64 // focus conditions (0 = nominal)
	Doses     []float64 // relative dose values around 1.0
	Gauge     Gauge     // CD measurement site
	Tolerance float64   // allowed relative CD deviation (default 0.10)
}

// ProcessWindow exposes mask under every dose–defocus combination and
// measures the gauge CD at each. The nominal CD is taken at (focus, dose
// 1.0); a point is in spec when its CD deviates by at most Tolerance from
// nominal. Kernel sets per focus condition are computed (and cached)
// through the optics package.
func ProcessWindow(cfg optics.Config, n int, mask *grid.Real, pw PWConfig) ([]PWPoint, error) {
	if len(pw.DefocusNM) == 0 || len(pw.Doses) == 0 {
		return nil, fmt.Errorf("litho: empty process-window sweep")
	}
	tol := pw.Tolerance
	if tol <= 0 {
		tol = 0.10
	}
	dx := cfg.TileNM / float64(n)

	// Nominal CD at perfect focus and unit dose.
	nomCfg := cfg
	nomCfg.DefocusNM = 0
	nomSet, err := optics.CachedKernels(nomCfg, false)
	if err != nil {
		return nil, err
	}
	sim := &Simulator{Cfg: nomCfg, N: n, DX: dx, Focus: nomSet, Defocus: nomSet}
	iNom := sim.Aerial(mask, nomSet)
	nomCD := MeasureCD(ResistBinary(iNom, 1.0), pw.Gauge) * dx
	if nomCD == 0 {
		return nil, fmt.Errorf("litho: gauge feature does not print at nominal conditions")
	}

	var out []PWPoint
	for _, z := range pw.DefocusNM {
		zCfg := cfg
		zCfg.DefocusNM = z
		set, err := optics.CachedKernels(zCfg, z != 0)
		if err != nil {
			return nil, err
		}
		img := sim.Aerial(mask, set)
		for _, dose := range pw.Doses {
			cd := MeasureCD(ResistBinary(img, dose), pw.Gauge) * dx
			out = append(out, PWPoint{
				DefocusNM: z,
				Dose:      dose,
				CDnm:      cd,
				InSpec:    cd > 0 && math.Abs(cd-nomCD) <= tol*nomCD,
			})
		}
	}
	return out, nil
}

// DepthOfFocus returns the largest contiguous defocus range (in nm,
// symmetric listing not required) over which at least minDoseLatitude of
// the swept dose values stay in spec — the scalar the circular-writer
// paper [7] optimizes ("best depth of focus … with less shot count").
func DepthOfFocus(points []PWPoint, minDoseLatitude float64) float64 {
	byFocus := map[float64][2]int{} // defocus → (inSpec, total)
	for _, p := range points {
		c := byFocus[p.DefocusNM]
		if p.InSpec {
			c[0]++
		}
		c[1]++
		byFocus[p.DefocusNM] = c
	}
	var focuses []float64
	for z := range byFocus {
		focuses = append(focuses, z)
	}
	sort.Float64s(focuses)
	bestLen := 0.0
	runStart := math.NaN()
	for _, z := range focuses {
		c := byFocus[z]
		ok := c[1] > 0 && float64(c[0])/float64(c[1]) >= minDoseLatitude
		if !ok {
			runStart = math.NaN()
			continue
		}
		if math.IsNaN(runStart) {
			runStart = z
		}
		if l := z - runStart; l > bestLen {
			bestLen = l
		}
	}
	return bestLen
}
