package litho

import (
	"fmt"
	"math"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// lossGradV3 is LossGrad with the resist loop numerics v3 ran, kept
// verbatim: three math.Exp calls per pixel where v4 has one exp3.
// Everything around the loop is LossGradCols' own.
func lossGradV3(s *Simulator, mask, target *grid.Real, wL2, wPVB float64) *DiffResult {
	a := s.arenaFor(s.Focus)
	a.loadMask(mask)
	sets := [2]*optics.KernelSet{s.Focus, s.Defocus}
	kc := [2]int{s.kcount(s.Focus, true), s.kcount(s.Defocus, true)}
	if wPVB == 0 {
		kc[1] = 0
	}
	fields := [2][]*grid.Complex{a.saved(0, kc[0]), a.saved(1, kc[1])}
	s.forward(a, 0, sets[0], kc[0], fields[0])
	s.forward(a, 1, sets[1], kc[1], fields[1])
	a.raise()

	const dMax2 = DoseMax * DoseMax
	const dMin2 = DoseMin * DoseMin
	l2, pvb := 0.0, 0.0
	pack := a.packN.Data
	for i, t := range target.Data[:len(pack)] {
		// The exponentials first, back to back: the divisions that follow
		// then overlap instead of each waiting on its own call.
		xNom := ResistSteepness * (real(pack[i]) - Threshold)
		eNom := math.Exp(-math.Abs(xNom))
		if wPVB == 0 {
			zNom := logistic(xNom, eNom)
			d := zNom - t
			l2 += d * d
			pack[i] = complex(wL2*2*d*ResistSteepness*zNom*(1-zNom), 0)
			continue
		}
		xMax := ResistSteepness * (dMax2*imag(pack[i]) - Threshold)
		xMin := ResistSteepness * (dMin2*imag(pack[i]) - Threshold)
		eMax, eMin := math.Exp(-math.Abs(xMax)), math.Exp(-math.Abs(xMin))
		zNom, zMax, zMin := logistic(xNom, eNom), logistic(xMax, eMax), logistic(xMin, eMin)
		d, dmax, dmin := zNom-t, zMax-t, zMin-t
		l2 += d * d
		pvb += dmax*dmax + dmin*dmin
		pack[i] = complex(wL2*2*d*ResistSteepness*zNom*(1-zNom),
			wPVB*2*ResistSteepness*(dmax*zMax*(1-zMax)*dMax2+dmin*zMin*(1-zMin)*dMin2))
	}
	res := &a.res
	*res = DiffResult{L2: l2, PVB: pvb, Loss: wL2*l2 + wPVB*pvb, GradM: a.gradM}
	s.backward(a, sets, kc, fields, 0, s.N)
	return res
}

// The v4 resist loop agrees with v3's at every benchmark window, with and
// without the defocus corners: the loss to 1e-14 and the gradient to
// 1e-13 of its largest entry. windowSim's feature greyed to 0.6 on a 0.15
// background (alternate) keeps many pixels near the threshold, where the
// sigmoids bend.
func TestLossGradMatchesV3Resist(t *testing.T) {
	for _, w := range benchWindows {
		for _, wPVB := range []float64{0, 1} {
			s, mask, target := windowSim(t, w.n, w.tileNM)
			mask = alternate(mask, 0, w.n, 0, w.n)
			want := keep(lossGradV3(s, mask, target, 1, wPVB))
			got := s.LossGrad(mask, target, 1, wPVB)
			what := fmt.Sprintf("%d px, wPVB %g", w.n, wPVB)
			for _, l := range [][2]float64{{got.Loss, want.Loss}, {got.L2, want.L2}, {got.PVB, want.PVB}} {
				if math.Abs(l[0]-l[1]) > 1e-14*math.Abs(l[1]) {
					t.Errorf("%s: loss terms %v, v3 %v", what, l[0], l[1])
				}
			}
			diff, scale := 0.0, 0.0
			for i, g := range want.GradM.Data {
				diff = max(diff, math.Abs(got.GradM.Data[i]-g))
				scale = max(scale, math.Abs(g))
			}
			t.Logf("%s: loss %.3g (v3 %.3g), gradient off by %.2g of its largest entry", what, got.Loss, want.Loss, diff/scale)
			if scale == 0 || diff > 1e-13*scale {
				t.Errorf("%s: gradient differs from v3's by %g, largest entry %g", what, diff, scale)
			}
		}
	}
}
