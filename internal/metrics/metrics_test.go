package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/gridkit"
)

func TestL2CountsDifferingPixels(t *testing.T) {
	a := grid.NewReal(4, 4)
	b := grid.NewReal(4, 4)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	b.Set(1, 1, 1)
	b.Set(2, 2, 1)
	// Two differing pixels at dx = 2 nm → 2·4 = 8 nm².
	if got := L2(a, b, 2); got != 8 {
		t.Fatalf("L2 = %v, want 8", got)
	}
	if got := L2(a, a, 2); got != 0 {
		t.Fatalf("self L2 = %v", got)
	}
}

func TestL2PanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	L2(grid.NewReal(2, 2), grid.NewReal(3, 3), 1)
}

func TestPVBSymmetric(t *testing.T) {
	a := grid.NewReal(3, 3)
	b := grid.NewReal(3, 3)
	gridkit.Fill(a, 1)
	b.Set(1, 1, 1)
	if PVB(a, b, 1) != PVB(b, a, 1) {
		t.Fatal("PVB not symmetric")
	}
	if got := PVB(a, b, 1); got != 8 {
		t.Fatalf("PVB = %v, want 8", got)
	}
}

// perfectPrint returns a layout plus its exact rasterization, so EPE is 0.
func perfectPrint(n int) (*layout.Layout, *grid.Real) {
	l := &layout.Layout{Name: "t", TileNM: 512, Rects: []layout.Rect{{X: 128, Y: 128, W: 128, H: 256}}}
	return l, l.Rasterize(n)
}

func TestEPEPerfectPrintHasNoViolations(t *testing.T) {
	l, z := perfectPrint(256)
	if got := EPEViolations(l, z, EPESpacingNM, EPEConstraintNM); got != 0 {
		t.Fatalf("perfect print has %d EPE violations", got)
	}
}

func TestEPEEmptyPrintViolatesEverywhere(t *testing.T) {
	l, _ := perfectPrint(256)
	empty := grid.NewReal(256, 256)
	got := EPEViolations(l, empty, EPESpacingNM, EPEConstraintNM)
	// Perimeter 2·(128+256) = 768 nm at 40 nm spacing → ≈ 19 samples, all
	// violated (inner probe fails).
	if got < 15 {
		t.Fatalf("empty print only %d violations", got)
	}
}

func TestEPESmallShiftWithinConstraint(t *testing.T) {
	// A print dilated by ~8 nm (2 px at 4 nm/px) stays within the 15 nm
	// constraint, so no violations.
	l, z := perfectPrint(128) // dx = 4 nm
	dil := gridkit.Dilate(z, gridkit.DiskElement(2))
	if got := EPEViolations(l, dil, EPESpacingNM, EPEConstraintNM); got != 0 {
		t.Fatalf("8 nm dilation caused %d violations", got)
	}
	// Dilation by ~24 nm (6 px) must violate on every edge sample.
	big := gridkit.Dilate(z, gridkit.DiskElement(6))
	if got := EPEViolations(l, big, EPESpacingNM, EPEConstraintNM); got == 0 {
		t.Fatal("24 nm dilation caused no violations")
	}
}

func TestEPESkipsInternalEdges(t *testing.T) {
	// Two touching rects forming an L: the shared edge must not be
	// sampled, so a perfect print still has zero violations.
	l := &layout.Layout{Name: "L", TileNM: 512, Rects: []layout.Rect{
		{X: 128, Y: 128, W: 64, H: 192},
		{X: 128, Y: 320, W: 192, H: 64},
	}}
	z := l.Rasterize(256)
	if got := EPEViolations(l, z, EPESpacingNM, EPEConstraintNM); got != 0 {
		t.Fatalf("internal edge sampled: %d violations", got)
	}
}

func TestCheckCircleMRC(t *testing.T) {
	shots := []geom.Circle{
		{X: 10, Y: 10, R: 5},  // 20 nm at dx=4 → fine
		{X: 20, Y: 20, R: 2},  // 8 nm → below min
		{X: 30, Y: 30, R: 25}, // 100 nm → above max
	}
	v := CheckCircleMRC(shots, 4, 12, 76)
	if len(v) != 2 {
		t.Fatalf("violations = %+v, want 2", v)
	}
	if v[0].Shot != 1 || v[1].Shot != 2 {
		t.Fatalf("wrong shots flagged: %+v", v)
	}
}

func TestEvaluateAggregates(t *testing.T) {
	l, z := perfectPrint(256)
	r := Evaluate(l, z, z, z, 42)
	if r.L2 != 0 || r.PVB != 0 || r.EPE != 0 || r.Shots != 42 {
		t.Fatalf("report = %+v", r)
	}
	// Degraded corners produce positive PVB.
	zMax := gridkit.Dilate(z, gridkit.DiskElement(1))
	zMin := gridkit.Erode(z, gridkit.DiskElement(1))
	r2 := Evaluate(l, z, zMax, zMin, 1)
	if r2.PVB <= 0 {
		t.Fatal("PVB should be positive for differing corners")
	}
	dx := float64(l.TileNM) / 256.0
	if math.Abs(r2.PVB-L2(zMax, zMin, dx)) > 1e-9 {
		t.Fatal("Evaluate PVB inconsistent with direct computation")
	}
}

// TestScoreShots: the scorer is the spelled-out pipeline — rasterize,
// print, Evaluate, CheckCircleMRC — and its two printed lines carry those
// values, with the violation list capped at ten.
func TestScoreShots(t *testing.T) {
	l := cduLayout()
	oc := optics.Default()
	oc.TileNM = float64(l.TileNM)
	sim, err := litho.New(oc, 64)
	if err != nil {
		t.Fatal(err)
	}
	shots := []geom.Circle{{X: 16, Y: 30, R: 4}, {X: 42, Y: 30, R: 5}}
	for i := 0; i < 12; i++ {
		shots = append(shots, geom.Circle{X: 30, Y: 58, R: 0.5}) // 4 nm: below rMin
	}
	var out strings.Builder
	s := ScoreShots(&out, "cdu", l, sim, shots, 12, 76)

	mask := geom.RasterizeCircles(64, 64, shots)
	res := sim.Simulate(mask)
	if want := Evaluate(l, res.ZNom, res.ZMax, res.ZMin, len(shots)); s.Report != want {
		t.Fatalf("report %+v, want %+v", s.Report, want)
	}
	if gridkit.SqDiff(s.Mask, mask) != 0 || gridkit.SqDiff(s.Printed, res.ZNom) != 0 || len(s.MRC) != 12 {
		t.Fatalf("mask, print or %d violations differ from the pipeline's", len(s.MRC))
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	head := fmt.Sprintf("cdu: L2 %.1f nm2, PVB %.1f nm2, EPE %d, shots 14", s.L2, s.PVB, s.EPE)
	if len(lines) != 13 || lines[0] != head || lines[1] != "MRC: 12 violations" || lines[12] != "  … 2 more" {
		t.Fatalf("printed:\n%s", out.String())
	}

	out.Reset()
	if s := ScoreShots(&out, "cdu", l, sim, shots[:2], 12, 76); len(s.MRC) != 0 || !strings.HasSuffix(out.String(), "\nMRC: clean\n") {
		t.Fatalf("legal radii reported as:\n%s", out.String())
	}
}
