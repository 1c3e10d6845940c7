package grid_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

func TestRealAccessors(t *testing.T) {
	g := grid.NewReal(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Data) != 12 {
		t.Fatalf("bad dimensions: %+v", g)
	}
	g.Set(2, 1, 7.5)
	if got := g.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
}

func TestNewRealPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewReal(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			grid.NewReal(dims[0], dims[1])
		}()
	}
}

func TestElementwiseOps(t *testing.T) {
	a := grid.NewReal(2, 2)
	b := grid.NewReal(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	copy(b.Data, []float64{10, 20, 30, 40})

	e := gridkit.Clone(a).Mul(b)
	if e.Data[2] != 90 {
		t.Fatalf("Mul[2] = %v, want 90", e.Data[2])
	}
	f := gridkit.Scale(gridkit.Clone(a), 0.5)
	if f.Data[1] != 1 {
		t.Fatalf("Scale[1] = %v, want 1", f.Data[1])
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := grid.NewReal(2, 2)
	b := grid.NewReal(3, 2)
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched shapes did not panic")
		}
	}()
	a.Mul(b)
}

func TestReductions(t *testing.T) {
	g := grid.NewReal(2, 2)
	copy(g.Data, []float64{1, -2, 3, -4})
	if got := gridkit.Sum(g); got != -2 {
		t.Fatalf("Sum = %v, want -2", got)
	}
	if got := g.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	o := grid.NewReal(2, 2)
	copy(o.Data, []float64{1, 1, 1, 1})
	if got := gridkit.Dot(g, o); got != -2 {
		t.Fatalf("Dot = %v, want -2", got)
	}
	if got := gridkit.SqDiff(g, o); got != 0+9+4+25 {
		t.Fatalf("SqDiff = %v, want 38", got)
	}
}

func TestBinarize(t *testing.T) {
	g := grid.NewReal(3, 1)
	copy(g.Data, []float64{0.1, 0.5, 0.9})
	b := g.Binarize(0.5)
	want := []float64{0, 0, 1}
	for i := range want {
		if b.Data[i] != want[i] {
			t.Fatalf("Binarize[%d] = %v, want %v", i, b.Data[i], want[i])
		}
	}
}

func TestHasNaN(t *testing.T) {
	g := grid.NewReal(2, 1)
	if gridkit.HasNaN(g) {
		t.Fatal("zero grid reported NaN")
	}
	g.Data[1] = math.NaN()
	if !gridkit.HasNaN(g) {
		t.Fatal("NaN not detected")
	}
	g.Data[1] = math.Inf(1)
	if !gridkit.HasNaN(g) {
		t.Fatal("Inf not detected")
	}
}

func TestRealComplexConversion(t *testing.T) {
	r := grid.NewReal(2, 2)
	copy(r.Data, []float64{1, 2, 3, 4})
	c := gridkit.FromReal(r)
	back := gridkit.RealPart(c)
	for i := range r.Data {
		if back.Data[i] != r.Data[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, back.Data[i], r.Data[i])
		}
	}
}

func TestDownsampleBox(t *testing.T) {
	g := grid.NewReal(4, 4)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	d := grid.DownsampleBox(g, 2)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsampled dims %dx%d", d.W, d.H)
	}
	// Top-left box holds 0,1,4,5 → mean 2.5.
	if d.At(0, 0) != 2.5 {
		t.Fatalf("box(0,0) = %v, want 2.5", d.At(0, 0))
	}
	if d.At(1, 1) != (10.0+11+14+15)/4 {
		t.Fatalf("box(1,1) = %v", d.At(1, 1))
	}
}

func TestDownsamplePanicsOnNonDivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-divisible downsample")
		}
	}()
	grid.DownsampleBox(grid.NewReal(5, 4), 2)
}

func TestUpsampleBilinearConstant(t *testing.T) {
	g := grid.NewReal(3, 3)
	gridkit.Fill(g, 7)
	u := grid.UpsampleBilinear(g, 4)
	for i, v := range u.Data {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("bilinear of constant grid not constant at %d: %v", i, v)
		}
	}
}

// Property: box-downsampling preserves the grid mean exactly.
func TestDownsamplePreservesMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grid.NewReal(8, 8)
		for i := range g.Data {
			g.Data[i] = rng.Float64()*10 - 5
		}
		d := grid.DownsampleBox(g, 2)
		meanG := gridkit.Sum(g) / float64(len(g.Data))
		meanD := gridkit.Sum(d) / float64(len(d.Data))
		return math.Abs(meanG-meanD) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
