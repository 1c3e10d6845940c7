package fracture

import (
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func greedyCfg() GreedyCircleConfig {
	return GreedyCircleConfig{RMin: 2, RMax: 12, CoverThreshold: 0.9}
}

func TestGreedyCirclesDiskIsOneShot(t *testing.T) {
	m := grid.NewReal(48, 48)
	disk(m, 24, 24, 8)
	shots := GreedyCircles(m, greedyCfg())
	if len(shots) == 0 {
		t.Fatal("no shots")
	}
	// The first (largest-gain) shot should nearly cover the whole disk.
	first := geom.RasterizeCircles(48, 48, shots[:1])
	inter := 0
	for i := range m.Data {
		if m.Data[i] > 0.5 && first.Data[i] > 0.5 {
			inter++
		}
	}
	if float64(inter)/gridkit.Sum(m) < 0.7 {
		t.Fatalf("first greedy shot covers only %.2f of the disk", float64(inter)/gridkit.Sum(m))
	}
}

func TestGreedyCirclesCoverage(t *testing.T) {
	m := grid.NewReal(64, 64)
	for y := 12; y < 52; y++ {
		for x := 24; x < 40; x++ {
			m.Set(x, y, 1)
		}
	}
	shots := GreedyCircles(m, greedyCfg())
	rec := geom.RasterizeCircles(64, 64, shots)
	covered := 0
	for i := range m.Data {
		if m.Data[i] > 0.5 && rec.Data[i] > 0.5 {
			covered++
		}
	}
	if frac := float64(covered) / gridkit.Sum(m); frac < 0.85 {
		t.Fatalf("greedy covers only %.2f of the bar", frac)
	}
	for _, c := range shots {
		if c.R < 2-1e-9 || c.R > 12+1e-9 {
			t.Fatalf("radius %v out of bounds", c.R)
		}
	}
}

func TestGreedyFewerShotsThanDenseCircleRule(t *testing.T) {
	// Greedy's big-shot preference should not lose badly to a densely
	// sampled CircleRule on the same shape.
	m := grid.NewReal(64, 64)
	for y := 10; y < 54; y++ {
		for x := 26; x < 38; x++ {
			m.Set(x, y, 1)
		}
	}
	greedy := GreedyCircles(m, greedyCfg())
	dense := CircleRule(m, CircleRuleConfig{SampleDist: 1, RMin: 2, RMax: 12, CoverThreshold: 0.9})
	if len(greedy) > len(dense) {
		t.Fatalf("greedy (%d) worse than 1px-sampled CircleRule (%d)", len(greedy), len(dense))
	}
}

func TestGreedyMaxShots(t *testing.T) {
	m := grid.NewReal(64, 64)
	for y := 10; y < 54; y++ {
		for x := 20; x < 44; x++ {
			m.Set(x, y, 1)
		}
	}
	shots := GreedyCircles(m, GreedyCircleConfig{RMin: 2, RMax: 8, CoverThreshold: 0.9, MaxShots: 3})
	if len(shots) != 3 {
		t.Fatalf("MaxShots ignored: %d shots", len(shots))
	}
}

func TestGreedyEmptyMask(t *testing.T) {
	if shots := GreedyCircles(grid.NewReal(32, 32), greedyCfg()); len(shots) != 0 {
		t.Fatalf("empty mask produced %d shots", len(shots))
	}
}

func TestGreedyPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GreedyCircles(grid.NewReal(8, 8), GreedyCircleConfig{RMin: 5, RMax: 2, CoverThreshold: 0.9})
}
