package optics_test

import (
	"sync"
	"testing"

	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

// Simulators built at once on one cold condition — tile lanes starting
// together, two daemon jobs of one window size — share both kernel sets:
// each of the two keys is decomposed once, although litho.New builds the
// focus and defocus sets side by side on two goroutines.
func TestConcurrentNewSharesKernelSets(t *testing.T) {
	var mu sync.Mutex
	computes := map[bool]int{}
	release := make(chan struct{})
	defer optics.SetComputeKernels(func(cfg optics.Config, defocus bool) (*optics.KernelSet, error) {
		mu.Lock()
		computes[defocus]++
		mu.Unlock()
		<-release // hold the decompositions until every caller has arrived
		return optics.ComputeKernels(cfg, defocus)
	})()

	cfg := optics.Default()
	cfg.TileNM = 700
	const callers = 8
	sims := make([]*litho.Simulator, callers)
	var arrived, done sync.WaitGroup
	arrived.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			arrived.Done()
			s, err := litho.New(cfg, 88)
			if err != nil {
				t.Error(err)
			}
			sims[i] = s
		}(i)
	}
	arrived.Wait()
	close(release)
	done.Wait()
	if t.Failed() {
		return
	}
	if computes[false] != 1 || computes[true] != 1 {
		t.Fatalf("%d callers on a cold condition ran %d focus and %d defocus decompositions, want 1 each", callers, computes[false], computes[true])
	}
	for i, s := range sims {
		if s.Focus != sims[0].Focus || s.Defocus != sims[0].Defocus || s.Defocus == s.Focus || s.Defocus.Defocus != true {
			t.Fatalf("simulator %d holds sets %p/%p, simulator 0 %p/%p", i, s.Focus, s.Defocus, sims[0].Focus, sims[0].Defocus)
		}
	}
}
