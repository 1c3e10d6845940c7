package fft

import (
	"sync"
	"testing"
)

// One plan is shared by every goroutine: its tables are read-only after
// NewPlan and each transform takes its own scratch from the plan's pool.
// Eight goroutines hammer a Stockham and a Bluestein plan, 1-D and 2-D;
// every result must equal the single-threaded one exactly.
func TestConcurrentTransforms(t *testing.T) {
	for _, n := range []int{96, 97} {
		plan := NewPlan(n)
		ref := randomSignal(n, 99)
		want := append([]complex128(nil), ref...)
		plan.Forward(want)
		ref2 := randomGrid(n, n, 98)
		want2 := ref2.Clone()
		Forward2D(want2)
		Inverse2DBand(want2, n/4)

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					x := append([]complex128(nil), ref...)
					plan.Forward(x)
					if maxErr(x, want) != 0 {
						t.Errorf("n=%d: concurrent 1-D transform diverged", n)
						return
					}
					plan.Inverse(x)
					x2 := ref2.Clone()
					Forward2D(x2)
					Inverse2DBand(x2, n/4)
					if maxErr(x2.Data, want2.Data) != 0 {
						t.Errorf("n=%d: concurrent 2-D transform diverged", n)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Goroutines racing to build the same lengths must all end up on one plan
// per length.
func TestConcurrentPlanCreation(t *testing.T) {
	sizes := []int{301, 302, 303, 320}
	got := make([][]*Plan, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, size := range sizes {
				x := randomSignal(size, int64(size))
				Forward(x)
				Inverse(x)
				got[g] = append(got[g], cachedPlan(size))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range sizes {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d holds a different plan for length %d", g, sizes[i])
			}
		}
	}
}
