package flow

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
)

// ruleFallback is the graceful-degradation engine used by the fault
// tests: no optimization at all, just rule-based circle fracturing of
// the rasterized target. Cheap, deterministic, and hard to break.
func ruleFallback() Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		return fracture.CircleRule(target, fracture.DefaultCircleRuleConfig(sim.DX))
	}
}

// quadLayout puts one feature in each 2×2 tile of the 1024 nm chip, so
// every window of the default 128-core tiling is occupied.
func quadLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "quad",
		TileNM: 1024,
		Rects: []layout.Rect{
			{X: 150, Y: 160, W: 80, H: 220},
			{X: 660, Y: 150, W: 80, H: 220},
			{X: 150, Y: 650, W: 220, H: 80},
			{X: 660, Y: 660, W: 80, H: 220},
		},
	}
}

// faultConfig picks the primary engine for the fault tests. The
// isolation, degradation and resume contracts are engine-independent,
// so short mode (raced in CI, and slow under the detector) uses the
// cheap rule engine while full runs keep real CircleOpt tiles.
func faultConfig() Config {
	cfg := testConfig()
	if testing.Short() {
		cfg.Optimize = ruleFallback()
	} else {
		cfg.Optimize = circleOptimizer(4)
	}
	return cfg
}

func TestTileWorkerCount(t *testing.T) {
	cases := []struct {
		w, jobs, want int
	}{
		{0, 5, 1},                            // zero → serial
		{1, 5, 1},                            // explicit serial
		{3, 5, 3},                            // plain
		{8, 3, 3},                            // capped by job count
		{-1, 1, 1},                           // all cores, one job
		{-1, 1 << 20, runtime.GOMAXPROCS(0)}, // all cores, many jobs
		{4, 0, 0},                            // no jobs → no workers
		{-7, 2, min(2, runtime.GOMAXPROCS(0))},
	}
	for _, tc := range cases {
		if got := tileWorkerCount(tc.w, tc.jobs); got != tc.want {
			t.Errorf("tileWorkerCount(%d, %d) = %d, want %d", tc.w, tc.jobs, got, tc.want)
		}
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, bigLayout(), testConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
}

// TestRunContextCancelMidRun blocks every tile inside an injected stall,
// cancels, and demands a prompt ctx.Err() return with no leaked worker
// goroutines (the -race CI job runs this).
func TestRunContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := faultConfig()
	cfg.TileWorkers = 4
	cfg.Optimize = InjectFaults(cfg.Optimize, FaultPlan{
		0: {{Sleep: time.Minute}},
		1: {{Sleep: time.Minute}},
		2: {{Sleep: time.Minute}},
		3: {{Sleep: time.Minute}},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, quadLayout(), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("cancellation took %s", wall)
	}
	// Workers must wind down; poll briefly for the goroutine count to
	// return to its pre-run level (other test goroutines may wobble it).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before run, %d after cancellation", before, runtime.NumGoroutine())
}

// TestTileTimeoutRetries stalls attempt 0 of one tile past the per-tile
// deadline; the retry runs clean and the run records the recovery.
func TestTileTimeoutRetries(t *testing.T) {
	cfg := faultConfig()
	// The primary engine here is the cheap rule-based one, so only the
	// injected stall — not honest optimization work — can trip the
	// deadline, keeping the test robust on slow machines.
	cfg.TileTimeout = 500 * time.Millisecond
	cfg.TileRetries = 1
	cfg.Optimize = InjectFaults(ruleFallback(), FaultPlan{
		0: {{Sleep: time.Minute}},
	})
	res, err := Run(bigLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.TileStats[0]
	if st.Attempts != 2 || st.Path != PathPrimary {
		t.Fatalf("tile 0 stat: %+v", st)
	}
	if !strings.Contains(st.Failure, "deadline") {
		t.Fatalf("tile 0 failure = %q, want deadline", st.Failure)
	}
	if res.Retried != 1 || res.Fallbacks != 0 || res.Empty != 0 {
		t.Fatalf("summary: %+v", res)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
}

// TestTimedOutAttemptStopsComputing: an attempt past its TileTimeout
// returns at the next iteration boundary instead of running its remaining
// iterations on canceled passes. One occupied 96-px window, a
// 100-iteration CircleOpt primary, a 10 ms deadline, two retries and no
// fallback: the tile's wall stays within three deadlines plus two
// iterations each. The iteration is measured here, on the same tile run
// without a deadline, as the longest gap between its heartbeats — the
// longest step an attempt can be inside when its deadline passes — so the
// bound scales under -race and under a loaded host.
func TestTimedOutAttemptStopsComputing(t *testing.T) {
	l := &layout.Layout{Name: "one", TileNM: 1024, Rects: []layout.Rect{{X: 80, Y: 70, W: 72, H: 100}}}
	var iter time.Duration
	free := testConfig()
	free.CorePx, free.HaloPx = 64, 16
	timed := free
	timed.TileTimeout = 10 * time.Millisecond
	timed.TileRetries = 2
	timed.Optimize = circleOptimizer(100)
	free.Optimize = func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		last, fwd := time.Now(), opt.ProgressFrom(sim.Ctx)
		sim.Ctx = opt.WithProgress(sim.Ctx, func(it int, loss float64, at time.Time) {
			iter, last = max(iter, at.Sub(last)), at
			fwd(it, loss, at)
		})
		return timed.Optimize(sim, target)
	}
	occupied := func(cfg Config) TileStat {
		t.Helper()
		res, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hit []TileStat
		for _, st := range res.TileStats {
			if st.Occupied {
				hit = append(hit, st)
			}
		}
		if len(hit) != 1 || hit[0].Window != 96 {
			t.Fatalf("want one occupied 96-px window, got %+v", hit)
		}
		return hit[0]
	}

	// Host noise only ever adds time, and comes in bursts: each round
	// measures the iteration right before the timed-out run it bounds, and
	// one round within its bound passes. Without the iteration-boundary
	// checks every round takes several times its bound.
	for round := 0; round < 3; round++ {
		iter = 0
		ref := occupied(free)
		if ref.Wall < 3*timed.TileTimeout {
			t.Skipf("the whole run (%s) barely outlasts the deadline", ref.Wall)
		}
		st := occupied(timed)
		if st.Path != PathEmpty || st.Attempts != 3 || !strings.Contains(st.Failure, "deadline") {
			t.Fatalf("tile stat: %+v", st)
		}
		bound := 3 * (timed.TileTimeout + 2*iter)
		t.Logf("no deadline: %s for %d iterations, the longest %s; three timed-out attempts: %s (bound %s)", ref.Wall, ref.Iters, iter, st.Wall, bound)
		if st.Wall <= bound {
			return
		}
	}
	t.Error("three timed-out attempts outlasted three deadlines plus two iterations each in every round")
}

// TestPanicRetryNaNFallbackEmpty walks all three degradation stages in
// one run: tile 0 panics once then succeeds, tile 1 emits NaNs until the
// fallback saves it, tile 3 fails every engine and degrades to empty —
// and the run still finishes.
func TestPanicRetryNaNFallbackEmpty(t *testing.T) {
	cfg := faultConfig()
	cfg.TileRetries = 1
	cfg.Fallback = InjectFaults(ruleFallback(), FaultPlan{
		3: {{}, {}, {Panic: true}}, // fallback attempt (attempt index 2) panics too
	})
	cfg.Optimize = InjectFaults(cfg.Optimize, FaultPlan{
		0: {{Panic: true}},
		1: {{NaN: true}, {NaN: true}},
		3: {{NaN: true}, {Panic: true}},
	})
	res, err := Run(quadLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		idx      int
		attempts int
		path     string
		failure  string
	}{
		{0, 2, PathPrimary, "panic"},
		{1, 3, PathFallback, "shot 0 not finite"},
		{2, 1, PathPrimary, ""},
		{3, 3, PathEmpty, "panic"},
	}
	for _, c := range checks {
		st := res.TileStats[c.idx]
		if st.Attempts != c.attempts || st.Path != c.path {
			t.Fatalf("tile %d stat: %+v, want %d attempts path %s", c.idx, st, c.attempts, c.path)
		}
		if c.failure == "" && st.Failure != "" {
			t.Fatalf("tile %d unexpected failure %q", c.idx, st.Failure)
		}
		if c.failure != "" && !strings.Contains(st.Failure, c.failure) {
			t.Fatalf("tile %d failure %q, want %q", c.idx, st.Failure, c.failure)
		}
	}
	if res.Retried != 1 || res.Fallbacks != 1 || res.Empty != 1 {
		t.Fatalf("summary: retried %d fallbacks %d empty %d", res.Retried, res.Fallbacks, res.Empty)
	}
	// The empty tile contributes nothing; its quadrant has no shots.
	for _, s := range res.Shots {
		if s.X >= 128 && s.Y >= 128 {
			t.Fatalf("empty-degraded tile produced shot %+v", s)
		}
	}
	if st := res.TileStats[3]; st.Shots != 0 {
		t.Fatalf("empty tile reports %d shots", st.Shots)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots from surviving tiles")
	}
}

// TestBadRadiusValidation rejects out-of-bound radii when the bounds are
// configured and retries into a clean attempt.
func TestBadRadiusValidation(t *testing.T) {
	cfg := faultConfig()
	cfg.TileRetries = 1
	cfg.RMinPx = 1
	cfg.RMaxPx = 40
	cfg.Optimize = InjectFaults(cfg.Optimize, FaultPlan{
		0: {{BadRadius: true}},
	})
	res, err := Run(bigLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.TileStats[0]
	if st.Attempts != 2 || st.Path != PathPrimary || !strings.Contains(st.Failure, "radius") {
		t.Fatalf("tile 0 stat: %+v", st)
	}
}

// sameResult demands byte-identical shot lists plus equal tile stats
// modulo wall time and the resume marker.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Shots) != len(want.Shots) {
		t.Fatalf("%d shots vs %d", len(got.Shots), len(want.Shots))
	}
	for i := range got.Shots {
		if got.Shots[i] != want.Shots[i] {
			t.Fatalf("shot %d differs: %+v vs %+v", i, got.Shots[i], want.Shots[i])
		}
	}
	if len(got.TileStats) != len(want.TileStats) {
		t.Fatalf("%d stats vs %d", len(got.TileStats), len(want.TileStats))
	}
	for i := range got.TileStats {
		g, w := got.TileStats[i], want.TileStats[i]
		g.Wall, w.Wall = 0, 0
		g.RasterWall, w.RasterWall = 0, 0
		g.Resumed, w.Resumed = false, false
		g.Proc, w.Proc = false, false
		g.ProcCrashes, w.ProcCrashes = 0, 0
		g.LinkErr, w.LinkErr = "", ""
		g.Host, w.Host = "", ""
		// A cache hit inherits its twin's attempt record, so everything
		// except the hit markers must already match; the markers themselves
		// are mode-dependent, like Proc.
		g.CacheHit, w.CacheHit = false, false
		g.CacheKey, w.CacheKey = "", ""
		if g != w {
			t.Fatalf("stat %d differs: %+v vs %+v", i, g, w)
		}
	}
	if got.Retried != want.Retried || got.Fallbacks != want.Fallbacks || got.Empty != want.Empty {
		t.Fatalf("summary differs: %+v vs %+v", got, want)
	}
}

// everyTileDone fails unless every occupied tile of a finished run
// records the rung that produced it.
func everyTileDone(t *testing.T, res *Result) {
	t.Helper()
	for _, st := range res.TileStats {
		if st.Occupied && st.Path == "" {
			t.Fatalf("occupied tile %d has no outcome path: %+v", st.Index, st)
		}
	}
}

// TestFaultDeterminismAndResume is the acceptance contract: a run that
// suffers deterministic faults, is canceled mid-chip, checkpoints, and
// resumes (through a torn journal tail) produces byte-identical output
// to the same faulted run executed uninterrupted.
func TestFaultDeterminismAndResume(t *testing.T) {
	l := quadLayout()
	plan := FaultPlan{
		1: {{Panic: true}},              // recovers on retry
		3: {{NaN: true}, {Panic: true}}, // exhausts retries, lands on fallback
	}
	mkCfg := func() Config {
		cfg := faultConfig()
		cfg.TileRetries = 1
		cfg.TileWorkers = 1 // serial: the cancel point below is deterministic
		cfg.Fallback = ruleFallback()
		cfg.Optimize = InjectFaults(cfg.Optimize, plan)
		return cfg
	}

	// Reference: uninterrupted faulted run, no checkpoint.
	ref, err := Run(l, mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Retried != 1 || ref.Fallbacks != 1 {
		t.Fatalf("reference summary: %+v", ref)
	}
	if ref.PeakBytes <= 0 {
		t.Fatalf("reference PeakBytes = %d", ref.PeakBytes)
	}

	// Interrupted run: die inside tile 2 — two stage-2 iterations into a
	// CircleOpt tile (its beats are 5 of stage 1, then stage 2's), at
	// once under the beatless rule engine — so tiles 0 and 1 are
	// journaled and tiles 2, 3 are not. A finished tile is the unit of
	// resume: the half-done one is recomputed from scratch.
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mkCfg()
	cfg.CheckpointPath = ckpt
	inner := cfg.Optimize
	cfg.Optimize = func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		if info, ok := TileInfoFrom(sim.Ctx); ok && info.Index == 2 {
			beats, fwd := 0, opt.ProgressFrom(sim.Ctx)
			sim.Ctx = opt.WithProgress(sim.Ctx, func(iter int, loss float64, at time.Time) {
				fwd(iter, loss, at)
				if beats++; beats == 7 {
					cancel()
				}
			})
			inner(sim, target)
			cancel()
			<-sim.Ctx.Done()
			return nil
		}
		return inner(sim, target)
	}
	if _, err := RunContext(ctx, l, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}

	// Simulate a torn final append before resuming.
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 200, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume with the plain faulted optimizer.
	cfg = mkCfg()
	cfg.CheckpointPath = ckpt
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 2 {
		t.Fatalf("resumed %d tiles, want 2", res.Resumed)
	}
	for i, st := range res.TileStats {
		if want := i < 2; st.Resumed != want {
			t.Fatalf("tile %d resumed = %v", i, st.Resumed)
		}
	}
	sameResult(t, res, ref)

	// A third run replays everything and recomputes nothing.
	cfg = mkCfg()
	cfg.CheckpointPath = ckpt
	res2, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 4 {
		t.Fatalf("full replay resumed %d tiles, want 4", res2.Resumed)
	}
	sameResult(t, res2, ref)
}

// TestCheckpointConfigMismatch refuses to resume a journal written for a
// different tiling.
func TestCheckpointConfigMismatch(t *testing.T) {
	l := bigLayout()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := faultConfig()
	cfg.Optimize = ruleFallback() // journal binding is what's under test, keep tiles cheap
	cfg.CheckpointPath = ckpt
	if _, err := Run(l, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CorePx = 64 // different tiling, same journal
	if _, err := Run(l, cfg); !errors.Is(err, checkpoint.ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
}

// TileInfoFrom extracts the tile identity the flow attached to ctx.
// Outside a flow attempt (single-window use, nil context) ok is false.
func TileInfoFrom(ctx context.Context) (TileInfo, bool) {
	if ctx == nil {
		return TileInfo{}, false
	}
	info, ok := ctx.Value(tileInfoKey{}).(TileInfo)
	return info, ok
}
