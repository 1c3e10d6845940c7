package grid_test

import (
	"math"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestUpsampleBilinearGradientRamp(t *testing.T) {
	// A linear ramp must stay linear (bilinear interpolation is exact on
	// affine functions away from the clamped borders).
	g := grid.NewReal(8, 1)
	for x := 0; x < 8; x++ {
		g.Set(x, 0, float64(x))
	}
	u := grid.UpsampleBilinear(g, 4)
	// Interior samples: value at pixel p maps back to (p+0.5)/4 − 0.5.
	for p := 8; p < 24; p++ {
		want := (float64(p)+0.5)/4 - 0.5
		for y := 0; y < 4; y++ {
			if math.Abs(u.At(p, y)-want) > 1e-9 {
				t.Fatalf("ramp at %d = %v, want %v", p, u.At(p, y), want)
			}
		}
	}
}

func TestUpsampleBilinearPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	grid.UpsampleBilinear(grid.NewReal(2, 2), 0)
}

func TestDownsampleIdentityFactorOne(t *testing.T) {
	g := grid.NewReal(3, 3)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	d := grid.DownsampleBox(g, 1)
	if gridkit.SqDiff(d, g) != 0 {
		t.Fatal("factor-1 box downsample not identity")
	}
}
