package fracture

import (
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

// disk paints a filled circle for test masks.
func disk(m *grid.Real, cx, cy int, r float64) {
	r2 := r * r
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			dx, dy := float64(x-cx), float64(y-cy)
			if dx*dx+dy*dy <= r2 {
				m.Set(x, y, 1)
			}
		}
	}
}

func TestManhattanizeIdentityAtBlockOne(t *testing.T) {
	m := grid.NewReal(16, 16)
	disk(m, 8, 8, 5)
	out := Manhattanize(m, 1)
	// Identity up to checkerboard cleanup, which for a disk changes nothing.
	if gridkit.SqDiff(out, m.Binarize(0.5)) != 0 {
		t.Fatal("block=1 Manhattanize is not the identity")
	}
}

func TestManhattanizeMajority(t *testing.T) {
	m := grid.NewReal(4, 4)
	// Top-left 2×2 block: 3 of 4 filled → block filled.
	m.Set(0, 0, 1)
	m.Set(1, 0, 1)
	m.Set(0, 1, 1)
	// Bottom-right block: 1 of 4 filled → block empty.
	m.Set(3, 3, 1)
	out := Manhattanize(m, 2)
	if out.At(1, 1) != 1 {
		t.Fatal("majority block not filled")
	}
	if out.At(3, 3) != 0 || out.At(2, 2) != 0 {
		t.Fatal("minority block not cleared")
	}
}

func TestManhattanizePanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Manhattanize(grid.NewReal(4, 4), 0)
}

func TestRectShotsOnRectangleIsOne(t *testing.T) {
	m := grid.NewReal(32, 32)
	for y := 8; y < 24; y++ {
		for x := 8; x < 16; x++ {
			m.Set(x, y, 1)
		}
	}
	shots := RectShots(m, 1)
	if len(shots) != 1 {
		t.Fatalf("rectangle fractured into %d shots", len(shots))
	}
}

func TestRectShotsCurvilinearCostsMore(t *testing.T) {
	// Figure 1's premise: a circle needs many rectangles but one circular
	// shot.
	m := grid.NewReal(64, 64)
	disk(m, 32, 32, 14)
	rects := RectShots(m, 1)
	if len(rects) < 8 {
		t.Fatalf("disk fractured into only %d rects; staircase expected", len(rects))
	}
	cfg := CircleRuleConfig{SampleDist: 8, RMin: 2, RMax: 20, CoverThreshold: 0.9}
	circles := CircleRule(m, cfg)
	if len(circles) == 0 {
		t.Fatal("CircleRule produced no shots")
	}
	if len(circles) >= len(rects) {
		t.Fatalf("circular fracturing (%d) not cheaper than rect (%d)", len(circles), len(rects))
	}
}

func TestCircleRuleCoversMask(t *testing.T) {
	m := grid.NewReal(64, 64)
	disk(m, 32, 32, 12)
	cfg := CircleRuleConfig{SampleDist: 4, RMin: 2, RMax: 16, CoverThreshold: 0.9}
	circles := CircleRule(m, cfg)
	rec := geom.RasterizeCircles(64, 64, circles)
	inter, union, maskArea := 0, 0, 0
	for i := range m.Data {
		a := m.Data[i] > 0.5
		b := rec.Data[i] > 0.5
		if a {
			maskArea++
		}
		if a && b {
			inter++
		}
		if a || b {
			union++
		}
	}
	if iou := float64(inter) / float64(union); iou < 0.75 {
		t.Fatalf("circle reconstruction IoU %.2f too low", iou)
	}
	if cov := float64(inter) / float64(maskArea); cov < 0.8 {
		t.Fatalf("circle reconstruction covers only %.2f of the mask", cov)
	}
}

func TestCircleRuleRespectsRadiusBounds(t *testing.T) {
	m := grid.NewReal(64, 64)
	disk(m, 20, 20, 10)
	disk(m, 45, 45, 4)
	cfg := CircleRuleConfig{SampleDist: 4, RMin: 3, RMax: 8, CoverThreshold: 0.9}
	for _, c := range CircleRule(m, cfg) {
		if c.R < cfg.RMin-1e-9 || c.R > cfg.RMax+1e-9 {
			t.Fatalf("shot radius %v outside [%v, %v]", c.R, cfg.RMin, cfg.RMax)
		}
	}
}

func TestCircleRuleEmptyMask(t *testing.T) {
	cfg := CircleRuleConfig{SampleDist: 4, RMin: 2, RMax: 8, CoverThreshold: 0.9}
	if got := CircleRule(grid.NewReal(32, 32), cfg); len(got) != 0 {
		t.Fatalf("empty mask produced %d shots", len(got))
	}
}

func TestCircleRulePerRegion(t *testing.T) {
	// Two disjoint disks must each receive at least one shot.
	m := grid.NewReal(64, 64)
	disk(m, 16, 16, 7)
	disk(m, 48, 48, 7)
	cfg := CircleRuleConfig{SampleDist: 8, RMin: 2, RMax: 12, CoverThreshold: 0.9}
	circles := CircleRule(m, cfg)
	left, right := 0, 0
	for _, c := range circles {
		if c.X < 32 {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Fatalf("shots not distributed over regions: left=%d right=%d", left, right)
	}
}

func TestCircleRuleSampleDistanceMonotonicity(t *testing.T) {
	// Larger sample distance must not increase the shot count (Figure 7a).
	m := grid.NewReal(96, 96)
	for y := 20; y < 76; y++ {
		for x := 40; x < 56; x++ {
			m.Set(x, y, 1)
		}
	}
	prev := 1 << 30
	for _, sd := range []int{2, 4, 8, 16} {
		cfg := CircleRuleConfig{SampleDist: sd, RMin: 3, RMax: 12, CoverThreshold: 0.9}
		n := len(CircleRule(m, cfg))
		if n > prev {
			t.Fatalf("shot count grew with sample distance: %d → %d at sd=%d", prev, n, sd)
		}
		prev = n
	}
}

func TestDefaultCircleRuleConfigScales(t *testing.T) {
	c1 := DefaultCircleRuleConfig(1)
	if c1.SampleDist != 32 || c1.RMin != 12 || c1.RMax != 76 {
		t.Fatalf("dx=1 config %+v", c1)
	}
	c4 := DefaultCircleRuleConfig(4)
	if c4.SampleDist != 8 || c4.RMin != 3 || c4.RMax != 19 {
		t.Fatalf("dx=4 config %+v", c4)
	}
}

func TestCircleRuleDeterministic(t *testing.T) {
	m := grid.NewReal(64, 64)
	disk(m, 32, 32, 12)
	cfg := CircleRuleConfig{SampleDist: 4, RMin: 2, RMax: 16, CoverThreshold: 0.9}
	a := CircleRule(m, cfg)
	b := CircleRule(m, cfg)
	if len(a) != len(b) {
		t.Fatal("CircleRule not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CircleRule shot order not deterministic")
		}
	}
}
