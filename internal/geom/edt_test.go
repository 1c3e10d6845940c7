package geom

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

// bruteDistance is the O(n²) reference.
func bruteDistance(m *grid.Real) *grid.Real {
	d := grid.NewReal(m.W, m.H)
	var seeds []Pt
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.At(x, y) > 0.5 {
				seeds = append(seeds, Pt{x, y})
			}
		}
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			best := math.Inf(1)
			for _, s := range seeds {
				dx, dy := float64(x-s.X), float64(y-s.Y)
				if v := math.Sqrt(dx*dx + dy*dy); v < best {
					best = v
				}
			}
			d.Set(x, y, best)
		}
	}
	return d
}

func TestDistanceTransformSinglePoint(t *testing.T) {
	m := grid.NewReal(7, 7)
	m.Set(3, 3, 1)
	d := DistanceTransform(m)
	if d.At(3, 3) != 0 {
		t.Fatalf("seed distance = %v", d.At(3, 3))
	}
	if math.Abs(d.At(0, 0)-math.Sqrt(18)) > 1e-9 {
		t.Fatalf("corner distance = %v, want √18", d.At(0, 0))
	}
	if math.Abs(d.At(3, 0)-3) > 1e-9 {
		t.Fatalf("axis distance = %v, want 3", d.At(3, 0))
	}
}

func TestDistanceTransformMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		m := grid.NewReal(20, 17)
		for i := range m.Data {
			if rng.Float64() < 0.1 {
				m.Data[i] = 1
			}
		}
		if gridkit.Sum(m) == 0 {
			m.Set(5, 5, 1)
		}
		want := bruteDistance(m)
		got := DistanceTransform(m)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("trial %d idx %d: got %v want %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDistanceTransformEmptyMask(t *testing.T) {
	d := DistanceTransform(grid.NewReal(4, 4))
	for i, v := range d.Data {
		if !math.IsInf(v, 1) {
			t.Fatalf("empty mask distance[%d] = %v, want +Inf", i, v)
		}
	}
}

func TestSignedDistanceSignsAndZeroCrossing(t *testing.T) {
	m := grid.NewReal(16, 16)
	for y := 4; y < 12; y++ {
		for x := 4; x < 12; x++ {
			m.Set(x, y, 1)
		}
	}
	sd := SignedDistance(m)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			inside := m.At(x, y) > 0.5
			v := sd.At(x, y)
			if inside && v >= 0 {
				t.Fatalf("inside pixel (%d,%d) has sd %v ≥ 0", x, y, v)
			}
			if !inside && v <= 0 {
				t.Fatalf("outside pixel (%d,%d) has sd %v ≤ 0", x, y, v)
			}
		}
	}
	// Center of the 8×8 square is ~3.5px from the boundary.
	if c := sd.At(7, 7); c > -3 || c < -5 {
		t.Fatalf("center sd = %v, want ≈ -3.5", c)
	}
	// Thresholding the signed distance at 0 recovers the mask.
	for i := range m.Data {
		rec := 0.0
		if sd.Data[i] < 0 {
			rec = 1
		}
		if rec != m.Data[i] {
			t.Fatalf("sd<0 does not recover mask at %d", i)
		}
	}
}

func TestSignedDistanceDegenerateMasks(t *testing.T) {
	full := grid.NewReal(4, 4)
	gridkit.Fill(full, 1)
	sd := SignedDistance(full)
	for i, v := range sd.Data {
		if v >= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("full mask sd[%d] = %v", i, v)
		}
	}
	empty := grid.NewReal(4, 4)
	sd = SignedDistance(empty)
	for i, v := range sd.Data {
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("empty mask sd[%d] = %v", i, v)
		}
	}
}

// Property: the distance transform is 1-Lipschitz between 4-neighbours.
func TestDistanceTransformLipschitz(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := grid.NewReal(24, 24)
	for i := range m.Data {
		if rng.Float64() < 0.05 {
			m.Data[i] = 1
		}
	}
	m.Set(0, 0, 1)
	d := DistanceTransform(m)
	for y := 0; y < 24; y++ {
		for x := 0; x+1 < 24; x++ {
			if math.Abs(d.At(x, y)-d.At(x+1, y)) > 1+1e-9 {
				t.Fatalf("Lipschitz violated at (%d,%d)", x, y)
			}
		}
	}
	for y := 0; y+1 < 24; y++ {
		for x := 0; x < 24; x++ {
			if math.Abs(d.At(x, y)-d.At(x, y+1)) > 1+1e-9 {
				t.Fatalf("Lipschitz violated at (%d,%d) vertical", x, y)
			}
		}
	}
}

// One EDT serves transforms of any sequence of sizes: a smaller field
// after a larger one sees nothing of it, and once the scratch has grown
// Squared allocates nothing.
func TestEDTScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var e EDT
	for _, dim := range [][2]int{{40, 25}, {7, 9}, {1, 30}, {30, 1}, {33, 33}} {
		m := grid.NewReal(dim[0], dim[1])
		for i := range m.Data {
			if rng.Intn(12) == 0 {
				m.Data[i] = 1
			}
		}
		m.Data[rng.Intn(len(m.Data))] = 1
		d := make([]float64, len(m.Data))
		fill := func() {
			for i, v := range m.Data {
				d[i] = 0
				if v <= 0.5 {
					d[i] = Unreached
				}
			}
		}
		fill()
		e.Squared(d, m.W, m.H)
		for i, want := range bruteDistance(m).Data {
			if got := math.Sqrt(d[i]); got != want {
				t.Fatalf("%d×%d pixel %d: distance %v, want %v", m.W, m.H, i, got, want)
			}
		}
		if a := testing.AllocsPerRun(5, func() { fill(); e.Squared(d, m.W, m.H) }); a != 0 {
			t.Fatalf("%d×%d: %v allocations with warm scratch", m.W, m.H, a)
		}
	}
}

// The column sweeps leave a seedless column at Unreached and the row pass
// must still reach it from its neighbours; a field with no seed at all
// stays at Unreached/2 and above. Squared is held to bruteDistance on
// fields with seedless columns, seedless rows, all seeds and no seed.
func TestSquaredMatchesBruteOnSparseFields(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var e EDT
	for trial := 0; trial < 40; trial++ {
		w, h := rng.Intn(30)+1, rng.Intn(30)+1
		m := grid.NewReal(w, h)
		switch trial % 4 {
		case 0: // seeds in a few columns only
			for k := rng.Intn(3); k >= 0; k-- {
				x := rng.Intn(w)
				for y := 0; y < h; y++ {
					if rng.Intn(4) == 0 {
						m.Set(x, y, 1)
					}
				}
			}
		case 1: // seeds in a few rows only
			for k := rng.Intn(3); k >= 0; k-- {
				y := rng.Intn(h)
				for x := 0; x < w; x++ {
					if rng.Intn(4) == 0 {
						m.Set(x, y, 1)
					}
				}
			}
		case 2:
			gridkit.Fill(m, 1)
		}
		d := make([]float64, w*h)
		for i, v := range m.Data {
			if v <= 0.5 {
				d[i] = Unreached
			}
		}
		e.Squared(d, w, h)
		for i, want := range bruteDistance(m).Data {
			got := math.Sqrt(d[i])
			if d[i] >= Unreached/2 {
				got = math.Inf(1)
			}
			if got != want {
				t.Fatalf("trial %d (%d×%d) pixel %d: distance %v, want %v", trial, w, h, i, got, want)
			}
		}
	}
}
