// Package metrics implements the four evaluation metrics of Section 2.3 —
// squared L2, PVB, EPE and shot count — plus the mask-rule checks the
// circular writer makes cheap (radius bounds per shot).
//
// L2 and PVB are reported in nm² (differing pixels × pixel area), which
// keeps values comparable across simulation resolutions and matches the
// unit note under the paper's Table 2.
package metrics

import (
	"fmt"
	"io"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
)

// EPE measurement conventions (ICCAD-2013 style).
const (
	// EPESpacingNM is the distance between EPE sample points along edges.
	EPESpacingNM = 40.0
	// EPEConstraintNM is the tolerance beyond which a sample violates.
	EPEConstraintNM = 15.0
)

// L2 returns ‖zNom − target‖² in nm² for binary images: the count of
// differing pixels scaled by the pixel area.
func L2(zNom, target *grid.Real, dxNM float64) float64 {
	if zNom.W != target.W || zNom.H != target.H {
		panic(fmt.Sprintf("metrics: L2 shape mismatch %dx%d vs %dx%d", zNom.W, zNom.H, target.W, target.H))
	}
	n := 0
	for i := range zNom.Data {
		a := zNom.Data[i] > 0.5
		b := target.Data[i] > 0.5
		if a != b {
			n++
		}
	}
	return float64(n) * dxNM * dxNM
}

// PVB returns ‖zMax − zMin‖² in nm²: the area of the process-variation
// band between the outer and inner printed contours.
func PVB(zMax, zMin *grid.Real, dxNM float64) float64 {
	return L2(zMax, zMin, dxNM)
}

// EPEViolations counts sample points on the target polygon edges whose
// printed contour deviates by more than constraintNM, sampling every
// spacingNM along each horizontal and vertical edge. Edge segments
// interior to the pattern union (where touching rectangles join) are
// skipped.
func EPEViolations(l *layout.Layout, zNom *grid.Real, spacingNM, constraintNM float64) int {
	n := zNom.W
	dx := float64(l.TileNM) / float64(n)
	targetRaster := l.Rasterize(n)

	at := func(xNM, yNM float64) bool {
		px := int(xNM / dx)
		py := int(yNM / dx)
		if px < 0 || px >= n || py < 0 || py >= n {
			return false
		}
		return zNom.Data[py*n+px] > 0.5
	}
	targetAt := func(xNM, yNM float64) bool {
		px := int(xNM / dx)
		py := int(yNM / dx)
		if px < 0 || px >= n || py < 0 || py >= n {
			return false
		}
		return targetRaster.Data[py*n+px] > 0.5
	}

	violations := 0
	// probe measures one sample at edge point (x, y) with outward normal
	// (nx, ny); returns true on violation.
	probe := func(x, y, nx, ny float64) bool {
		// Skip samples on interior edges: just outside must be background
		// in the target itself.
		outProbe := constraintNM / 2
		if targetAt(x+nx*outProbe, y+ny*outProbe) {
			return false
		}
		// The print must not extend beyond constraint outward…
		if at(x+nx*(constraintNM+dx/2), y+ny*(constraintNM+dx/2)) {
			return true
		}
		// …and must still cover the point constraint inward.
		if !at(x-nx*(constraintNM+dx/2), y-ny*(constraintNM+dx/2)) {
			return true
		}
		return false
	}

	for _, r := range l.Rects {
		x0, y0 := float64(r.X), float64(r.Y)
		x1, y1 := float64(r.X+r.W), float64(r.Y+r.H)
		// Horizontal edges (top outward -y, bottom outward +y).
		for s := spacingNM / 2; s < float64(r.W); s += spacingNM {
			if probe(x0+s, y0, 0, -1) {
				violations++
			}
			if probe(x0+s, y1, 0, 1) {
				violations++
			}
		}
		// Vertical edges (left outward -x, right outward +x).
		for s := spacingNM / 2; s < float64(r.H); s += spacingNM {
			if probe(x0, y0+s, -1, 0) {
				violations++
			}
			if probe(x1, y0+s, 1, 0) {
				violations++
			}
		}
	}
	return violations
}

// MRCViolation describes one circular-shot mask-rule violation.
type MRCViolation struct {
	Shot   int // index into the shot list
	Reason string
}

// CheckCircleMRC verifies every shot's radius lies within [rMinNM,
// rMaxNM]. Radii are given in pixels; dxNM converts to nm. This is the
// "effortless" circular MRC the paper credits the writer with — no
// polygon-to-polygon spacing analysis is needed because shots may overlap
// freely.
func CheckCircleMRC(shots []geom.Circle, dxNM, rMinNM, rMaxNM float64) []MRCViolation {
	var out []MRCViolation
	for i, c := range shots {
		rNM := c.R * dxNM
		switch {
		case rNM < rMinNM-1e-9:
			out = append(out, MRCViolation{Shot: i, Reason: fmt.Sprintf("radius %.1f nm below minimum %.1f nm", rNM, rMinNM)})
		case rNM > rMaxNM+1e-9:
			out = append(out, MRCViolation{Shot: i, Reason: fmt.Sprintf("radius %.1f nm above maximum %.1f nm", rNM, rMaxNM)})
		}
	}
	return out
}

// Report aggregates the paper's four metrics for one optimized mask.
type Report struct {
	L2    float64 // nm²
	PVB   float64 // nm²
	EPE   int
	Shots int
}

// Evaluate computes the full metric set from the printed corners, the
// target layout, and the shot count.
func Evaluate(l *layout.Layout, zNom, zMax, zMin *grid.Real, shots int) Report {
	dx := float64(l.TileNM) / float64(zNom.W)
	target := l.Rasterize(zNom.W)
	return Report{
		L2:    L2(zNom, target, dx),
		PVB:   PVB(zMax, zMin, dx),
		EPE:   EPEViolations(l, zNom, EPESpacingNM, EPEConstraintNM),
		Shots: shots,
	}
}

// Score is a shot list scored end to end.
type Score struct {
	Report
	Mask    *grid.Real     // the shots rasterized on the simulator's grid
	Printed *grid.Real     // that mask's print at the nominal corner
	MRC     []MRCViolation // radii outside [rMinNM, rMaxNM]
}

// ScoreShots is the one scorer of a shot list: it rasterizes the shots on
// sim's grid, prints that mask at the three process corners, evaluates
// the prints against l, checks every radius, and writes
// "<label>: L2 … PVB … EPE … shots …" plus the MRC summary to w. Every
// tool that reports on a shot list reports through it, so a report
// always describes the list it names — not some other mask the
// optimizer held while producing it.
func ScoreShots(w io.Writer, label string, l *layout.Layout, sim *litho.Simulator,
	shots []geom.Circle, rMinNM, rMaxNM float64) Score {
	mask := geom.RasterizeCircles(sim.N, sim.N, shots)
	res := sim.Simulate(mask)
	s := Score{
		Report:  Evaluate(l, res.ZNom, res.ZMax, res.ZMin, len(shots)),
		Mask:    mask,
		Printed: res.ZNom,
		MRC:     CheckCircleMRC(shots, sim.DX, rMinNM, rMaxNM),
	}
	fmt.Fprintf(w, "%s: L2 %.1f nm2, PVB %.1f nm2, EPE %d, shots %d\n", label, s.L2, s.PVB, s.EPE, s.Shots)
	WriteMRC(w, s.MRC)
	return s
}

// WriteMRC prints the mask-rule summary: "MRC: clean", or the violation
// count and the first ten violations.
func WriteMRC(w io.Writer, viol []MRCViolation) {
	if len(viol) == 0 {
		fmt.Fprintln(w, "MRC: clean")
		return
	}
	fmt.Fprintf(w, "MRC: %d violations\n", len(viol))
	for i, v := range viol {
		if i >= 10 {
			fmt.Fprintf(w, "  … %d more\n", len(viol)-10)
			break
		}
		fmt.Fprintf(w, "  shot %d: %s\n", v.Shot, v.Reason)
	}
}
