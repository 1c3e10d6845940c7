// End-to-end integration tests: the full artifact pipeline a user of the
// command-line tools exercises — layout authoring, file round-trips, both
// CFAOPC methods, shot-list round-trips, evaluation, and MRC — wired
// through the public package APIs on a small tile.
package cfaopc_test

import (
	"bytes"
	"testing"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/ilt"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/gridkit"
	"cfaopc/internal/testkit/layoutkit"
)

// smallCase builds a 512 nm two-bar layout and its simulator at 4 nm/px.
func smallCase(t *testing.T) (*layout.Layout, *litho.Simulator) {
	t.Helper()
	l := &layout.Layout{
		Name:   "it-case",
		TileNM: 512,
		Rects: []layout.Rect{
			{X: 150, Y: 120, W: 72, H: 260},
			{X: 290, Y: 120, W: 72, H: 260},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := optics.Default()
	cfg.TileNM = float64(l.TileNM)
	sim, err := litho.New(cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	sim.KOpt = 5
	return l, sim
}

func TestEndToEndCircleOpt(t *testing.T) {
	l, sim := smallCase(t)

	// Layout file round-trip.
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := layout.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	target := parsed.Rasterize(sim.N)

	// Optimize with the paper's method.
	coCfg := core.DefaultConfig(sim.DX)
	coCfg.Iterations = 25
	res := (&core.CircleOpt{Cfg: coCfg, InitIterations: 8}).Optimize(sim, target)
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}

	// Shot list CSV round-trip preserves every shot.
	var csv bytes.Buffer
	if err := fracture.WriteShotsCSV(&csv, res.Shots, sim.DX); err != nil {
		t.Fatal(err)
	}
	back, err := fracture.ReadShotsCSV(bytes.NewReader(csv.Bytes()), sim.DX)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Shots) {
		t.Fatalf("CSV roundtrip lost shots: %d → %d", len(res.Shots), len(back))
	}
	for i := range back {
		if d := back[i].X - res.Shots[i].X; d > 0.1 || d < -0.1 {
			t.Fatalf("shot %d X drifted: %v vs %v", i, back[i].X, res.Shots[i].X)
		}
	}

	// Rebuilding the mask from the round-tripped shots gives the same
	// print and metrics the optimizer reported.
	mask := geom.RasterizeCircles(sim.N, sim.N, back)
	if gridkit.SqDiff(mask, res.Mask) != 0 {
		t.Fatal("mask from round-tripped shots differs")
	}
	r := sim.Simulate(mask)
	rep := metrics.Evaluate(parsed, r.ZNom, r.ZMax, r.ZMin, len(back))
	if rep.Shots != len(back) {
		t.Fatal("report shot count mismatch")
	}
	if rep.L2 <= 0 {
		t.Fatal("suspiciously perfect L2; evaluation path broken?")
	}
	// Print must beat the empty mask decisively.
	empty := sim.Simulate(gridkit.Scale(gridkit.Clone(mask), 0))
	repEmpty := metrics.Evaluate(parsed, empty.ZNom, empty.ZMax, empty.ZMin, 0)
	if rep.L2 >= repEmpty.L2/2 {
		t.Fatalf("optimized L2 %v not far below empty-mask %v", rep.L2, repEmpty.L2)
	}

	// MRC: radii legal, spacing clean or at least analyzable.
	if v := metrics.CheckCircleMRC(back, sim.DX, 12, 76); len(v) != 0 {
		t.Fatalf("MRC radius violations: %+v", v)
	}
}

func TestEndToEndBaselinePlusCircleRule(t *testing.T) {
	l, sim := smallCase(t)
	target := l.Rasterize(sim.N)

	iltCfg := ilt.DefaultConfig()
	iltCfg.Iterations = 20
	pixel := (&ilt.MultiLevel{Cfg: iltCfg}).Optimize(sim, target)

	// The traditional and circular fracturing paths on the same mask.
	rects := fracture.RectShots(pixel, 2)
	ruleCfg := fracture.DefaultCircleRuleConfig(sim.DX)
	circles := fracture.CircleRule(pixel, ruleCfg)
	if len(circles) == 0 || len(rects) == 0 {
		t.Fatal("fracturing produced no shots")
	}
	if len(circles) >= len(rects) {
		t.Fatalf("circles (%d) not fewer than rects (%d)", len(circles), len(rects))
	}

	// Rect shots must tile exactly the Manhattanized mask.
	man := fracture.Manhattanize(pixel, 2)
	painted := layoutkit.RasterizeRects(sim.N, sim.N, rects)
	if gridkit.SqDiff(man, painted) != 0 {
		t.Fatal("rect shots do not reproduce the Manhattanized mask")
	}

	// The circular mask still prints the target better than no OPC at all
	// printing nothing (sanity floor).
	circMask := geom.RasterizeCircles(sim.N, sim.N, circles)
	r := sim.Simulate(circMask)
	rep := metrics.Evaluate(l, r.ZNom, r.ZMax, r.ZMin, len(circles))
	if rep.L2 >= float64(l.Area()) {
		t.Fatalf("circular mask print worse than printing nothing: %v", rep.L2)
	}
}

func TestEndToEndWriteBlurRobustness(t *testing.T) {
	// The motivation of the circular writer: shot decompositions should
	// survive the e-beam's short-range blur. Check the circular mask's
	// print is stable under a 12 nm blur.
	l, sim := smallCase(t)
	target := l.Rasterize(sim.N)
	coCfg := core.DefaultConfig(sim.DX)
	coCfg.Iterations = 20
	res := (&core.CircleOpt{Cfg: coCfg, InitIterations: 6}).Optimize(sim, target)

	sharp := sim.Simulate(res.Mask)
	blurred := sim.Simulate(gridkit.BlurMask(res.Mask, 12/sim.DX))
	moved := 0
	for i := range sharp.ZNom.Data {
		if (sharp.ZNom.Data[i] > 0.5) != (blurred.ZNom.Data[i] > 0.5) {
			moved++
		}
	}
	if moved > int(gridkit.Sum(target))/4 {
		t.Fatalf("print unstable under write blur: %d px moved", moved)
	}
}
