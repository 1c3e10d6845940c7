// Package cfaopc's root benchmarks regenerate every table and figure of
// the paper's evaluation section, one testing.B target per exhibit. They
// run a reduced configuration (fewer iterations, a case subset) so that
// `go test -bench=.` completes in minutes; `cmd/paperbench` runs the full
// recorded configuration.
package cfaopc_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cfaopc/internal/bench"
	"cfaopc/internal/core"
	"cfaopc/internal/flow"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/layoutkit"
	"cfaopc/internal/wcache"
)

// benchOptions is the reduced configuration shared by all exhibits.
func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.Cases = []int{1, 4, 10} // small / medium representative subset
	o.BaselineIters = 20
	o.CircleOptIters = 25
	o.InitIters = 8
	o.KOpt = 4
	return o
}

var (
	runnerOnce sync.Once
	runner     *bench.Runner
	runnerErr  error
)

// sharedRunner memoizes one Runner across benchmarks so pixel baselines
// are optimized once and reused, exactly as the harness does.
func sharedRunner(b *testing.B) *bench.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner, runnerErr = bench.NewRunner(benchOptions())
	})
	if runnerErr != nil {
		b.Fatal(runnerErr)
	}
	return runner
}

// BenchmarkTable1 regenerates Table 1: each pixel baseline raw (VSB
// rectangle fracturing) vs +CircleRule, averaged metrics.
func BenchmarkTable1(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Table1()
		if len(t.Rows) != 6 {
			b.Fatalf("Table1 rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkTable2 regenerates Table 2: per-case printability/complexity
// for the three CircleRule pipelines and CircleOpt.
func BenchmarkTable2(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Table2()
		if len(t.Rows) != len(r.Suite)+1 {
			b.Fatalf("Table2 rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the sparsity-regularizer ablation.
func BenchmarkTable3(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Table3()
		if len(t.Rows) != 2 {
			b.Fatalf("Table3 rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1: rectangular vs circular
// fracturing shot counts on curvilinear masks.
func BenchmarkFigure1(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Figure1()
		if len(t.Rows) != 3 {
			b.Fatalf("Figure1 rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: the target/mask/printed triptych
// renders for a CircleOpt case.
func BenchmarkFigure6(b *testing.B) {
	r := sharedRunner(b)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		files, err := r.RenderCase(0, dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(files) != 3 {
			b.Fatalf("rendered %d files", len(files))
		}
	}
}

// BenchmarkAblationSTE measures what the straight-through estimator buys
// over continuous relaxation with final rounding (DESIGN.md design-choice
// ablation).
func BenchmarkAblationSTE(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.AblationSTE()
		if len(t.Rows) != 2 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkAblationCoverageRepair measures the coverage-repair extension
// to Algorithm 1 on wide regions.
func BenchmarkAblationCoverageRepair(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.AblationCoverageRepair()
		if len(t.Rows) != 2 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

// BenchmarkFlowRun measures the tiled full-chip flow at increasing
// tile-worker counts on a 2×2-core random layout with work in every
// quadrant. The stitched output is bit-identical at every count, so the
// sub-benchmarks differ only in wall time; the perf trajectory lands in
// BENCH_*.json alongside the exhibit benchmarks.
func BenchmarkFlowRun(b *testing.B) {
	l := layoutkit.GenerateRandom(7, layoutkit.RandomConfig{Features: 8})
	cfg := flow.Config{
		GridN:  256, // 8 nm/px over the 2048 nm chip
		CorePx: 128, // 2×2 cores
		HaloPx: 32,
		Optics: optics.Default(),
		KOpt:   4,
		Optimize: func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			coCfg := core.DefaultConfig(sim.DX)
			coCfg.Iterations = 15
			return (&core.CircleOpt{Cfg: coCfg, InitIterations: 6}).Optimize(sim, target).Shots
		},
	}
	// Warm the kernel cache outside the timed loops.
	if _, err := flow.Run(l, cfg); err != nil {
		b.Fatal(err)
	}
	sweep := []int{1, 2, runtime.GOMAXPROCS(0)}
	var baseShots []geom.Circle
	for _, tw := range sweep {
		b.Run(fmt.Sprintf("tileworkers=%d", tw), func(b *testing.B) {
			cfg.TileWorkers = tw
			for i := 0; i < b.N; i++ {
				res, err := flow.Run(l, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Shots) == 0 {
					b.Fatal("no shots")
				}
				if baseShots == nil {
					baseShots = res.Shots
				} else if len(res.Shots) != len(baseShots) {
					b.Fatalf("shot count drifted: %d vs %d", len(res.Shots), len(baseShots))
				}
			}
		})
	}
}

// BenchmarkFlowCached measures the window dedup cache on the 8×8
// repeated-cell array, where every cell window is pixel-identical:
// uncached optimizes all 64 windows, cold starts an empty cache
// (optimize one, serve 63 by content hash), warm reruns against the
// populated cache and optimizes nothing. The cold/warm gap is the
// figure recorded in BENCH_flow.json. Grid 512 (4 nm/px, 96-px windows,
// opcbench's array_cache geometry): at grid 256 the motif's bars are
// four pixels wide and every window optimizes to zero shots.
func BenchmarkFlowCached(b *testing.B) {
	l := layout.GenerateArray(8, 8, layout.ArrayConfig{})
	mkCfg := func(c *wcache.Cache) flow.Config {
		return flow.Config{
			GridN:  512,
			CorePx: 64, // one core per array cell
			HaloPx: 16, // stays inside the motif margin: windows dedup
			Optics: optics.Default(),
			KOpt:   4,
			Optimize: func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
				coCfg := core.DefaultConfig(sim.DX)
				coCfg.Iterations = 15
				return (&core.CircleOpt{Cfg: coCfg, InitIterations: 6}).Optimize(sim, target).Shots
			},
			Cache: c,
		}
	}
	// Warm the kernel cache (and pin the uncached shot list) outside the
	// timed loops.
	ref, err := flow.Run(l, mkCfg(nil))
	if err != nil {
		b.Fatal(err)
	}
	if len(ref.Shots) == 0 {
		b.Fatal("the array optimizes to no shots: every leg would time and compare empty lists")
	}
	check := func(b *testing.B, res *flow.Result, wantHits int) {
		b.Helper()
		if res.CacheHits != wantHits {
			b.Fatalf("cache hits = %d, want %d", res.CacheHits, wantHits)
		}
		if len(res.Shots) != len(ref.Shots) {
			b.Fatalf("shot count drifted: %d vs %d", len(res.Shots), len(ref.Shots))
		}
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := flow.Run(l, mkCfg(nil))
			if err != nil {
				b.Fatal(err)
			}
			check(b, res, 0)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := wcache.New(wcache.Config{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := flow.Run(l, mkCfg(c))
			if err != nil {
				b.Fatal(err)
			}
			check(b, res, 63)
		}
	})
	b.Run("warm", func(b *testing.B) {
		c, err := wcache.New(wcache.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.Run(l, mkCfg(c)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := flow.Run(l, mkCfg(c))
			if err != nil {
				b.Fatal(err)
			}
			check(b, res, 64)
		}
	})
}

// BenchmarkFigure7 regenerates Figure 7: the sample-distance ablation
// series for shot count, L2+PVB and EPE.
func BenchmarkFigure7(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		shot, quality, epe := r.Figure7()
		if len(shot.Series) != 3 || len(quality.Series) != 2 || len(epe.Series) != 2 {
			b.Fatal("figure series missing")
		}
		if i == 0 {
			b.Log("\n" + shot.Format() + quality.Format() + epe.Format())
		}
	}
}
