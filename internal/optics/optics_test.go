package optics

import (
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// smallConfig is a physically meaningful but cheap condition for tests: a
// 512 nm tile keeps the frequency support to a handful of bins.
func smallConfig() Config {
	c := Default()
	c.TileNM = 512
	c.NumKernels = 8
	return c
}

func TestValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{TileNM: 0, Wavelength: 193, NA: 1.35, SigmaIn: 0.5, SigmaOut: 0.8, NumKernels: 4},
		{TileNM: 2048, Wavelength: -1, NA: 1.35, SigmaIn: 0.5, SigmaOut: 0.8, NumKernels: 4},
		{TileNM: 2048, Wavelength: 193, NA: 0, SigmaIn: 0.5, SigmaOut: 0.8, NumKernels: 4},
		{TileNM: 2048, Wavelength: 193, NA: 1.35, SigmaIn: 0.8, SigmaOut: 0.5, NumKernels: 4},
		{TileNM: 2048, Wavelength: 193, NA: 1.35, SigmaIn: 0.5, SigmaOut: 1.2, NumKernels: 4},
		{TileNM: 2048, Wavelength: 193, NA: 1.35, SigmaIn: 0.5, SigmaOut: 0.8, NumKernels: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestPupilCutoff(t *testing.T) {
	c := smallConfig()
	bins := c.pupilBins()
	if p := c.pupil(0, 0, false); p != 1 {
		t.Fatalf("pupil at DC = %v, want 1", p)
	}
	if p := c.pupil(bins+1, 0, false); p != 0 {
		t.Fatalf("pupil beyond cutoff = %v, want 0", p)
	}
	// Defocus keeps unit magnitude inside the pupil.
	if m := cmplx.Abs(c.pupil(bins/2, 0, true)); math.Abs(m-1) > 1e-12 {
		t.Fatalf("defocused pupil magnitude = %v, want 1", m)
	}
	// Defocus phase at DC is zero.
	if p := c.pupil(0, 0, true); cmplx.Abs(p-1) > 1e-12 {
		t.Fatalf("defocused pupil at DC = %v, want 1", p)
	}
}

func TestSourcePointsInsideAnnulus(t *testing.T) {
	c := Default()
	pts := c.sourcePoints()
	if len(pts) == 0 {
		t.Fatal("no source points")
	}
	rIn := c.SigmaIn * c.pupilBins()
	rOut := c.SigmaOut * c.pupilBins()
	for _, p := range pts {
		r := math.Hypot(float64(p[0]), float64(p[1]))
		if r < rIn-1e-9 || r > rOut+1e-9 {
			t.Fatalf("source point %v outside annulus [%g, %g]", p, rIn, rOut)
		}
	}
	if len(pts) > 120 {
		t.Fatalf("source thinning failed: %d points", len(pts))
	}
}

func TestSourcePointsDegenerateAnnulus(t *testing.T) {
	// A tile so small the annulus covers no bin must still return a sample.
	c := Default()
	c.TileNM = 64
	pts := c.sourcePoints()
	if len(pts) == 0 {
		t.Fatal("degenerate annulus produced no source points")
	}
}

func TestComputeKernelsBasics(t *testing.T) {
	set, err := ComputeKernels(smallConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Kernels) == 0 {
		t.Fatal("no kernels")
	}
	// Weights positive and descending.
	for i, k := range set.Kernels {
		if k.Weight <= 0 {
			t.Fatalf("kernel %d weight %g not positive", i, k.Weight)
		}
		if i > 0 && k.Weight > set.Kernels[i-1].Weight+1e-12 {
			t.Fatalf("weights not descending at %d", i)
		}
	}
	// Clear-field normalization: Σ λ_k |H_k(0)|² == 1.
	clear := 0.0
	for _, k := range set.Kernels {
		h0 := k.At(0, 0)
		clear += k.Weight * (real(h0)*real(h0) + imag(h0)*imag(h0))
	}
	if math.Abs(clear-1) > 1e-9 {
		t.Fatalf("clear-field intensity %g, want 1", clear)
	}
}

func TestKernelAtOutsideSupportIsZero(t *testing.T) {
	set, err := ComputeKernels(smallConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	k := set.Kernels[0]
	if v := k.At(k.Half+1, 0); v != 0 {
		t.Fatalf("At beyond support = %v", v)
	}
	if v := k.At(0, -k.Half-5); v != 0 {
		t.Fatalf("At beyond support = %v", v)
	}
}

// The SOCS identity: with all kernels kept, Σ_k λ_k H_k(f1) conj(H_k(f2))
// must reproduce the Hopkins TCC at every frequency pair.
func TestSOCSReconstructsTCC(t *testing.T) {
	c := smallConfig()
	c.NumKernels = 1 << 20 // keep everything
	set, err := ComputeKernels(c, false)
	if err != nil {
		t.Fatal(err)
	}
	src := c.sourcePoints()
	js := 1 / float64(len(src))

	// Undo the clear-field rescale to compare against the raw TCC.
	clearRaw := 0.0
	tcc := func(f1x, f1y, f2x, f2y int) complex128 {
		var s complex128
		for _, p := range src {
			a := c.pupil(float64(f1x+p[0]), float64(f1y+p[1]), false)
			b := c.pupil(float64(f2x+p[0]), float64(f2y+p[1]), false)
			s += a * complex(real(b), -imag(b)) * complex(js, 0)
		}
		return s
	}
	clearRaw = real(tcc(0, 0, 0, 0))

	pairs := [][4]int{{0, 0, 0, 0}, {1, 0, 0, 0}, {1, 2, -1, 0}, {2, -2, 1, 1}, {0, 3, 0, -3}}
	for _, p := range pairs {
		var socs complex128
		for _, k := range set.Kernels {
			h1 := k.At(p[0], p[1])
			h2 := k.At(p[2], p[3])
			socs += complex(k.Weight, 0) * h1 * complex(real(h2), -imag(h2))
		}
		want := tcc(p[0], p[1], p[2], p[3]) / complex(clearRaw, 0)
		if cmplx.Abs(socs-want) > 1e-8 {
			t.Errorf("TCC mismatch at %v: socs %v vs hopkins %v", p, socs, want)
		}
	}
}

func TestDefocusChangesKernels(t *testing.T) {
	c := smallConfig()
	focus, err := ComputeKernels(c, false)
	if err != nil {
		t.Fatal(err)
	}
	defoc, err := ComputeKernels(c, true)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	n := len(focus.Kernels)
	if len(defoc.Kernels) < n {
		n = len(defoc.Kernels)
	}
	for i := 0; i < n; i++ {
		for j := range focus.Kernels[i].Coef {
			diff += cmplx.Abs(focus.Kernels[i].Coef[j] - defoc.Kernels[i].Coef[j])
		}
	}
	if diff < 1e-6 {
		t.Fatal("defocus kernel set identical to focus set")
	}
}

func TestComputeKernelsRejectsInvalid(t *testing.T) {
	c := Default()
	c.NA = -1
	if _, err := ComputeKernels(c, false); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

// Concurrent first callers of one key — two daemon jobs of one window size
// starting together, parallel benchmark runners — must share one
// decomposition, not each run their own.
func TestCachedKernelsSingleFlight(t *testing.T) {
	var computes atomic.Int32
	release := make(chan struct{})
	computeKernels = func(cfg Config, defocus bool) (*KernelSet, error) {
		computes.Add(1)
		<-release // hold the first compute until every caller has arrived
		return ComputeKernels(cfg, defocus)
	}
	defer func() { computeKernels = ComputeKernels }()

	cfg := smallConfig()
	cfg.TileNM = 500.5 // a key no other test uses; cold on every -count run
	kernelCacheMu.Lock()
	delete(kernelCache, kernelKey{cfg: cfg, defocus: true})
	kernelCacheMu.Unlock()
	const callers = 8
	sets := make([]*KernelSet, callers)
	var arrived, done sync.WaitGroup
	arrived.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			arrived.Done()
			set, err := CachedKernels(cfg, true)
			if err != nil {
				t.Error(err)
			}
			sets[i] = set
		}(i)
	}
	arrived.Wait()
	close(release)
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d goroutines on a cold key ran %d decompositions, want 1", callers, n)
	}
	for i, set := range sets {
		if set == nil || set != sets[0] {
			t.Fatalf("caller %d got kernel set %p, caller 0 got %p", i, set, sets[0])
		}
	}
	if set, _ := CachedKernels(cfg, true); set != sets[0] || computes.Load() != 1 {
		t.Fatal("a warm lookup recomputed")
	}
}

// ComputeKernels holds only B's nonzeros: at 2048 nm it allocates about
// 2.9 MB in all, under a bound that the dense B alone (2809 bins × 87
// source points × 16 B ≈ 3.9 MB) would break.
func TestComputeKernelsAllocBound(t *testing.T) {
	const bound = 3_500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ComputeKernels(Default(), true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Fatalf("ComputeKernels at 2048 nm allocated %d B, bound %d", n, bound)
	} else {
		t.Logf("ComputeKernels at 2048 nm allocated %d B (bound %d)", n, bound)
	}
}
