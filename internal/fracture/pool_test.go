package fracture

import (
	"slices"
	"sync"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
)

// poolWindows are windows of different sizes and shapes, so a fracturer
// that goes from one to the next shrinks and grows every buffer it has.
func poolWindows(tb testing.TB) ([]*grid.Real, CircleRuleConfig) {
	var ms []*grid.Real
	var cfg CircleRuleConfig
	for _, n := range []int{192, 64, 128, 96, 160, 80, 144, 112} {
		var m *grid.Real
		m, cfg = suiteWindow(tb, n)
		ms = append(ms, m)
	}
	blob := grid.NewReal(72, 40) // wide enough to need the repair pass
	for y := 4; y < 36; y++ {
		for x := 6; x < 66; x++ {
			blob.Data[y*72+x] = 1
		}
	}
	return append(ms, blob, grid.NewReal(50, 50)), cfg
}

// The fracturer behind CircleRule is shared state now. Window A after
// window B gives what A gave on a first call, whatever B left behind in
// the labels, the crop, the work lists and the shot list.
func TestCircleRuleReuseABA(t *testing.T) {
	ms, cfg := poolWindows(t)
	first := make([][]geom.Circle, len(ms))
	for i, m := range ms {
		first[i] = requireMatchesRef(t, "first call", m, cfg)
	}
	for i := range ms {
		for j := range ms {
			CircleRule(ms[j], cfg)
			if got := CircleRule(ms[i], cfg); !slices.Equal(got, first[i]) {
				t.Fatalf("window %d after window %d: %d shots, first call gave %d", i, j, len(got), len(first[i]))
			}
		}
	}
	if first[len(ms)-1] != nil {
		t.Fatalf("an empty window gave %v, want nil", first[len(ms)-1])
	}
}

// The returned list is the caller's: writing to it, or appending to it,
// reaches neither the pooled fracturer nor the next call's result.
func TestCircleRuleResultIsTheCallers(t *testing.T) {
	ms, cfg := poolWindows(t)
	want := slices.Clone(CircleRule(ms[0], cfg))
	got := CircleRule(ms[0], cfg)
	for i := range got {
		got[i] = geom.Circle{X: -1, Y: -1, R: -1}
	}
	got = append(got, geom.Circle{R: 99})
	again := CircleRule(ms[0], cfg)
	if !slices.Equal(again, want) {
		t.Fatal("mutating a returned shot list changed the next call's result")
	}
	if &again[0] == &got[0] {
		t.Fatal("two calls returned the same backing array")
	}
}

// Eight goroutines fracturing distinct windows at once each get what a
// serial call gives: a pooled fracturer belongs to one call at a time.
// Run under -race.
func TestCircleRuleConcurrentCallsMatchSerial(t *testing.T) {
	ms, cfg := poolWindows(t)
	ms = ms[:8]
	want := make([][]geom.Circle, len(ms))
	for i, m := range ms {
		want[i] = CircleRule(m, cfg)
	}
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *grid.Real) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := CircleRule(m, cfg); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, call %d: %d shots, serial %d", i, rep, len(got), len(want[i]))
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
}
