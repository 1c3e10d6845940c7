package fracture

import (
	"math/rand"
	"testing"

	"cfaopc/internal/geom"
)

func TestCompactRemovesSwallowedShot(t *testing.T) {
	shots := []geom.Circle{
		{X: 20, Y: 20, R: 10},
		{X: 21, Y: 20, R: 3}, // entirely inside the big one
	}
	out := CompactShots(64, 64, shots)
	if len(out) != 1 {
		t.Fatalf("compacted to %d shots, want 1", len(out))
	}
	if out[0].R != 10 {
		t.Fatalf("kept the wrong shot: %+v", out[0])
	}
	if !UnionEquals(64, 64, shots, out) {
		t.Fatal("compaction changed the union")
	}
}

func TestCompactKeepsNecessaryShots(t *testing.T) {
	shots := []geom.Circle{
		{X: 15, Y: 20, R: 6},
		{X: 25, Y: 20, R: 6}, // overlapping but both contribute area
	}
	out := CompactShots(64, 64, shots)
	if len(out) != 2 {
		t.Fatalf("compacted to %d shots, want 2", len(out))
	}
}

func TestCompactEmptyAndSingle(t *testing.T) {
	if out := CompactShots(32, 32, nil); len(out) != 0 {
		t.Fatal("nil input")
	}
	one := []geom.Circle{{X: 5, Y: 5, R: 2}}
	out := CompactShots(32, 32, one)
	if len(out) != 1 {
		t.Fatal("single shot removed")
	}
	// Must be a copy.
	out[0].X = 99
	if one[0].X != 5 {
		t.Fatal("compaction aliases input")
	}
}

// Property: compaction never changes the union raster and never grows the
// shot list.
func TestCompactPreservesUnionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(25) + 2
		shots := make([]geom.Circle, n)
		for i := range shots {
			shots[i] = geom.Circle{
				X: rng.Float64()*40 + 10,
				Y: rng.Float64()*40 + 10,
				R: rng.Float64()*6 + 2,
			}
		}
		out := CompactShots(64, 64, shots)
		if len(out) > len(shots) {
			t.Fatalf("trial %d: compaction grew the list", trial)
		}
		if !UnionEquals(64, 64, shots, out) {
			t.Fatalf("trial %d: union changed", trial)
		}
	}
}

func TestCompactNestedCluster(t *testing.T) {
	// A chain of big circles with small ones sprinkled inside them: every
	// small circle is swallowed, the chain survives.
	var shots []geom.Circle
	for i := 0; i < 4; i++ {
		shots = append(shots, geom.Circle{X: 20 + float64(12*i), Y: 40, R: 10})
	}
	for i := 0; i < 6; i++ {
		shots = append(shots, geom.Circle{X: 22 + float64(6*i), Y: 41, R: 2})
	}
	out := CompactShots(96, 96, shots)
	if len(out) != 4 {
		t.Fatalf("compacted to %d shots, want the 4 big ones", len(out))
	}
	for _, c := range out {
		if c.R != 10 {
			t.Fatalf("kept a swallowed shot: %+v", c)
		}
	}
	if !UnionEquals(96, 96, shots, out) {
		t.Fatal("union changed")
	}
}
