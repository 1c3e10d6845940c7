package fracture

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cfaopc/internal/geom"
)

// TravelLength returns the total beam travel of a shot sequence: the sum
// of center-to-center distances in writing order (pixels). Stage settling
// between flashes is a real component of mask write time, so shot lists
// should be ordered before hand-off to the writer.
func TravelLength(shots []geom.Circle) float64 {
	total := 0.0
	for i := 1; i < len(shots); i++ {
		total += math.Hypot(shots[i].X-shots[i-1].X, shots[i].Y-shots[i-1].Y)
	}
	return total
}

func TestTravelLength(t *testing.T) {
	shots := []geom.Circle{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 3, Y: 10}}
	if got := TravelLength(shots); got != 5+6 {
		t.Fatalf("travel = %v, want 11", got)
	}
	if TravelLength(nil) != 0 || TravelLength(shots[:1]) != 0 {
		t.Fatal("degenerate travel not zero")
	}
}

func TestOrderShotsReducesTravel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(60) + 10
		shots := make([]geom.Circle, n)
		for i := range shots {
			shots[i] = geom.Circle{X: rng.Float64() * 500, Y: rng.Float64() * 500, R: 5}
		}
		// Shuffle guarantees a poor initial order with high probability.
		before := TravelLength(shots)
		ordered := OrderShots(shots)
		after := TravelLength(ordered)
		if after > before {
			t.Fatalf("trial %d: ordering increased travel %v → %v", trial, before, after)
		}
		// Permutation check: same multiset of shots.
		key := func(c geom.Circle) [3]float64 { return [3]float64{c.X, c.Y, c.R} }
		a := make([][3]float64, n)
		b := make([][3]float64, n)
		for i := range shots {
			a[i] = key(shots[i])
			b[i] = key(ordered[i])
		}
		sort.Slice(a, func(i, j int) bool { return less3(a[i], a[j]) })
		sort.Slice(b, func(i, j int) bool { return less3(b[i], b[j]) })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: ordering changed the shot multiset", trial)
			}
		}
	}
}

func less3(a, b [3]float64) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestOrderShotsLineCase(t *testing.T) {
	// Shots on a line presented in scrambled order: optimal order is the
	// sorted line; the heuristic must get within 1.5× of it.
	shots := []geom.Circle{
		{X: 50, Y: 0}, {X: 10, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 0}, {X: 30, Y: 0}, {X: 20, Y: 0},
	}
	ordered := OrderShots(shots)
	if got := TravelLength(ordered); got > 75 { // optimal 50
		t.Fatalf("line travel %v, want ≤ 75", got)
	}
}

func TestOrderShotsDoesNotModifyInput(t *testing.T) {
	shots := []geom.Circle{{X: 9, Y: 9}, {X: 0, Y: 0}, {X: 5, Y: 5}}
	OrderShots(shots)
	if shots[0].X != 9 || shots[1].X != 0 {
		t.Fatal("input slice reordered")
	}
}
