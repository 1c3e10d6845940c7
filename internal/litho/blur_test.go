package litho

import (
	"math"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestBlurMaskZeroSigmaIsIdentity(t *testing.T) {
	m := grid.NewReal(16, 16)
	m.Set(8, 8, 1)
	b := gridkit.BlurMask(m, 0)
	if gridkit.SqDiff(b, m) != 0 {
		t.Fatal("sigma=0 blur changed the mask")
	}
	// And must be a copy, not an alias.
	b.Set(0, 0, 1)
	if m.At(0, 0) != 0 {
		t.Fatal("BlurMask returned an alias")
	}
}

func TestBlurMaskPreservesMass(t *testing.T) {
	m := grid.NewReal(32, 32)
	for y := 12; y < 20; y++ {
		for x := 12; x < 20; x++ {
			m.Set(x, y, 1)
		}
	}
	b := gridkit.BlurMask(m, 2)
	// A Gaussian preserves total intensity (DC gain 1); clamping removes a
	// negligible amount for well-separated features.
	if math.Abs(gridkit.Sum(b)-gridkit.Sum(m)) > 0.01*gridkit.Sum(m) {
		t.Fatalf("mass changed: %v → %v", gridkit.Sum(m), gridkit.Sum(b))
	}
	// Peak must drop, tails must rise.
	if b.At(15, 15) >= 1 {
		t.Fatal("blur did not reduce the peak")
	}
	if b.At(10, 15) <= 0 {
		t.Fatal("blur did not spread into the tail")
	}
}

func TestBlurMaskRangeClamped(t *testing.T) {
	m := grid.NewReal(16, 16)
	gridkit.Fill(m, 1)
	b := gridkit.BlurMask(m, 3)
	for i, v := range b.Data {
		if v < 0 || v > 1 {
			t.Fatalf("blurred value out of range at %d: %v", i, v)
		}
		// Blurring a uniform field is the identity.
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("uniform field changed at %d: %v", i, v)
		}
	}
}

func TestBlurDegradesFracturedMaskPrint(t *testing.T) {
	// The paper's motivation: write blur hurts dense rectangular shot
	// decompositions. A blurred mask prints differently from a sharp one.
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	for y := 10; y < 22; y++ {
		for x := 13; x < 19; x++ {
			m.Set(x, y, 1)
		}
	}
	sharp := s.Aerial(m, s.Focus)
	blurred := s.Aerial(gridkit.BlurMask(m, 3), s.Focus) // 24 nm blur
	if gridkit.SqDiff(sharp, blurred) < 1e-6 {
		t.Fatal("strong write blur had no effect on the aerial image")
	}
}
