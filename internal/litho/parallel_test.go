package litho

import (
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
)

// Parallel kernel execution must be bit-identical to the serial path: the
// reduction order is fixed regardless of worker count.
func TestParallelAerialBitIdentical(t *testing.T) {
	s := testSim(t, 32)
	rng := rand.New(rand.NewSource(77))
	m := grid.NewReal(32, 32)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	s.Workers = 1
	serial := s.Aerial(m, s.Focus, false, nil)
	for _, w := range []int{2, 4, -1} {
		s.Workers = w
		par := s.Aerial(m, s.Focus, false, nil)
		if serial.SqDiff(par) != 0 {
			t.Fatalf("workers=%d: aerial differs from serial", w)
		}
	}
}

// Also at the benchmark's 192-px window (4·4·4·3, band-pruned), where
// concurrent kernels share one FFT plan and its scratch pool.
func TestParallelLossGradBitIdentical(t *testing.T) {
	for _, s := range []*Simulator{testSim(t, 32), flowSim(t, 192)} {
		n := s.N
		target := grid.NewReal(n, n)
		mask := grid.NewReal(n, n)
		for y := 5 * n / 16; y < 11*n/16; y++ {
			for x := 13 * n / 32; x < 19*n/32; x++ {
				target.Set(x, y, 1)
				mask.Set(x, y, 1)
			}
		}
		s.Workers = 1
		serial := keep(s.LossGrad(mask, target, 1, 1))
		for _, w := range []int{2, 4} {
			s.Workers = w
			par := s.LossGrad(mask, target, 1, 1)
			if serial.Loss != par.Loss {
				t.Fatalf("n=%d workers=%d: loss differs: %v vs %v", n, w, serial.Loss, par.Loss)
			}
			if serial.GradM.SqDiff(par.GradM) != 0 {
				t.Fatalf("n=%d workers=%d: gradient differs from serial", n, w)
			}
		}
	}
}

func TestParallelFieldsSaved(t *testing.T) {
	s := testSim(t, 32)
	s.Workers = 3
	m := grid.NewReal(32, 32)
	m.Set(16, 16, 1)
	kc := len(s.Focus.Kernels)
	fields := make([]*grid.Complex, kc)
	s.Aerial(m, s.Focus, false, fields)
	for i, f := range fields {
		if f == nil {
			t.Fatalf("field %d not saved under parallel execution", i)
		}
	}
}
