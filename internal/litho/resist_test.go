package litho

import (
	"math"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestResistDoseMonotonicity(t *testing.T) {
	// Print area must be non-decreasing in dose for both resist models.
	i := grid.NewReal(16, 16)
	for idx := range i.Data {
		i.Data[idx] = float64(idx) / 255.0
	}
	prevBin, prevSig := -1.0, -1.0
	for _, dose := range []float64{0.9, 0.95, 1.0, 1.05, 1.1} {
		b := gridkit.Sum(ResistBinary(i, dose))
		s := gridkit.Sum(ResistSigmoid(i, dose))
		if b < prevBin {
			t.Fatalf("binary print area decreased with dose at %v", dose)
		}
		if s < prevSig {
			t.Fatalf("sigmoid print mass decreased with dose at %v", dose)
		}
		prevBin, prevSig = b, s
	}
}

func TestResistSigmoidApproachesBinary(t *testing.T) {
	// Far from threshold, the sigmoid resist agrees with the hard one.
	i := grid.NewReal(2, 1)
	i.Set(0, 0, Threshold*3)
	i.Set(1, 0, Threshold/3)
	zs := ResistSigmoid(i, 1)
	zb := ResistBinary(i, 1)
	if math.Abs(zs.At(0, 0)-zb.At(0, 0)) > 0.01 || math.Abs(zs.At(1, 0)-zb.At(1, 0)) > 0.01 {
		t.Fatalf("sigmoid %v vs binary %v", zs.Data, zb.Data)
	}
}

func TestSimulateProducesAllCorners(t *testing.T) {
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	for y := 8; y < 24; y++ {
		for x := 13; x < 19; x++ {
			m.Set(x, y, 1)
		}
	}
	r := s.Simulate(m)
	if r.INom == nil || r.IDef == nil || r.ZNom == nil || r.ZMax == nil || r.ZMin == nil {
		t.Fatal("corner images missing")
	}
	// The defocused aerial image differs from the nominal one.
	if gridkit.SqDiff(r.INom, r.IDef) == 0 {
		t.Fatal("defocus image identical to focus image")
	}
	// The outer corner can only print at least as much as the inner one
	// (a ±2% dose swing may move the contour by less than one coarse
	// pixel, so an empty band is legitimate at 8 nm/px).
	if gridkit.Sum(r.ZMax) < gridkit.Sum(r.ZMin) {
		t.Fatal("max-dose print smaller than min-dose print")
	}
}

// ResistSigmoid maps an aerial image to a smooth printed image
// σ(θ_z·(dose²·I − I_th)).
func ResistSigmoid(intensity *grid.Real, dose float64) *grid.Real {
	z := grid.NewReal(intensity.W, intensity.H)
	d2 := dose * dose
	for i, v := range intensity.Data {
		z.Data[i] = Sigmoid(ResistSteepness * (d2*v - Threshold))
	}
	return z
}
