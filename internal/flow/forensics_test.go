package flow

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/layout"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestStallWatchdogKillsWedgedSparesSlow is the liveness acceptance
// test: a tile whose optimizer wedges (no heartbeats) dies at
// StallTimeout, long before the wall deadline would fire, while an
// equally slow tile that heartbeats runs to completion.
func TestStallWatchdogKillsWedgedSparesSlow(t *testing.T) {
	cfg := faultConfig()
	cfg.Optimize = ruleFallback()
	cfg.Fallback = ruleFallback()
	cfg.TileRetries = 0
	cfg.TileTimeout = 60 * time.Second // the wall deadline this test must beat
	// 10× margin between beat period and stall deadline: under -race on
	// a loaded single-CPU box a beat can easily slip a whole period.
	cfg.StallTimeout = 500 * time.Millisecond
	cfg = withFaults(cfg, FaultPlan{
		// bigLayout occupies tiles 0 and 3 of the 2×2 tiling.
		0: {{Stall: true}},                                                     // wedged: no heartbeats, ever
		3: {{Sleep: 900 * time.Millisecond, BeatEvery: 50 * time.Millisecond}}, // slow but alive
	})
	start := time.Now()
	res, err := RunContext(context.Background(), bigLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 20*time.Second {
		t.Fatalf("run took %s; the watchdog should kill the wedge in ~%s", wall, cfg.StallTimeout)
	}

	wedged := res.TileStats[0]
	if !wedged.Stalled || wedged.Path != PathFallback {
		t.Fatalf("wedged tile stat: %+v, want stalled + fallback", wedged)
	}
	if !strings.Contains(wedged.Failure, "stalled") || !strings.Contains(wedged.Failure, "attempt 0 (primary)") {
		t.Fatalf("wedged tile failure = %q", wedged.Failure)
	}
	if wedged.Wall > 10*time.Second {
		t.Fatalf("wedged tile took %s, want ≪ TileTimeout %s", wedged.Wall, cfg.TileTimeout)
	}

	slow := res.TileStats[3]
	if slow.Stalled || slow.Path != PathPrimary || slow.Attempts != 1 {
		t.Fatalf("heartbeating tile stat: %+v, want untouched primary", slow)
	}
	if slow.Iters == 0 {
		t.Fatal("heartbeating tile recorded no heartbeats")
	}
	if res.Stalled != 1 {
		t.Fatalf("res.Stalled = %d, want 1", res.Stalled)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
}

// TestStallConfigValidation rejects the incoherent timeout combination
// up front.
func TestStallConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Optimize = ruleFallback()
	cfg.TileTimeout = time.Second
	cfg.StallTimeout = 2 * time.Second
	if _, err := RunContext(context.Background(), bigLayout(), cfg); err == nil || !strings.Contains(err.Error(), "stall timeout") {
		t.Fatalf("err = %v, want stall-vs-tile timeout rejection", err)
	}
	cfg = testConfig()
	cfg.Optimize = ruleFallback()
	cfg.StallTimeout = -time.Second
	if _, err := RunContext(context.Background(), bigLayout(), cfg); err == nil {
		t.Fatal("negative StallTimeout accepted")
	}
}

// TestJoinFailures pins the attempt-indexed failure format and its cap.
func TestJoinFailures(t *testing.T) {
	got := joinFailures([]AttemptOutcome{
		{Attempt: 0, Engine: "primary", Err: "panic: boom"},
		{Attempt: 1, Engine: "primary", Err: ""},
		{Attempt: 2, Engine: "fallback", Err: "invalid output: mask has NaN/Inf pixels"},
	})
	want := "attempt 0 (primary): panic: boom; attempt 2 (fallback): invalid output: mask has NaN/Inf pixels"
	if got != want {
		t.Fatalf("joined = %q, want %q", got, want)
	}
	if joinFailures(nil) != "" {
		t.Fatal("no failures should join to empty")
	}
	long := make([]AttemptOutcome, 64)
	for i := range long {
		long[i] = AttemptOutcome{Attempt: i, Engine: "primary", Err: strings.Repeat("x", 100)}
	}
	capped := joinFailures(long)
	if len(capped) > maxFailureBytes+64 || !strings.HasSuffix(capped, "…[truncated]") {
		t.Fatalf("cap failed: %d bytes, tail %q", len(capped), capped[len(capped)-20:])
	}
}

// TestQuarantineBundleRoundTrip is the forensics acceptance test: a tile
// that exhausts every engine writes a self-contained bundle, and
// ServeTask on nothing but that bundle and the same optimizers
// reproduces the recorded attempt sequence exactly.
func TestQuarantineBundleRoundTrip(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "quarantine")
	l := quadLayout()
	plan := FaultPlan{
		3: {{NaN: true}, {Panic: true}, {BadRadius: true}}, // exhausts primary ×2 + fallback
	}
	faulted := InjectFaults(ruleFallback(), plan)
	cfg := faultConfig()
	cfg.Optimize = faulted
	cfg.Fallback = faulted
	cfg.TileRetries = 1
	cfg.QuarantineDir = qdir
	cfg.Engines = quarantine.EngineMeta{Primary: "circlerule", Fallback: "circlerule", Iters: 8, Gamma: 3, SampleNM: 32}
	cfg.RMinPx = 1
	cfg.RMaxPx = 40

	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty != 1 || res.Quarantined != 1 {
		t.Fatalf("summary: empty %d quarantined %d", res.Empty, res.Quarantined)
	}
	st := res.TileStats[3]
	if st.Bundle == "" || st.Path != PathEmpty {
		t.Fatalf("quarantined tile stat: %+v", st)
	}
	for i, ts := range res.TileStats {
		if i != 3 && ts.Bundle != "" {
			t.Fatalf("healthy tile %d has a bundle: %q", i, ts.Bundle)
		}
	}
	if _, err := os.Stat(strings.TrimSuffix(st.Bundle, ".qrb") + ".json"); err != nil {
		t.Fatalf("missing JSON sidecar: %v", err)
	}

	b, err := quarantine.Load(st.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if b.Tile.Index != 3 || b.Tile.WindowPx != cfg.CorePx+2*cfg.HaloPx {
		t.Fatalf("bundle tile: %+v", b.Tile)
	}
	if len(b.Attempts) != 3 || b.Attempts[2].Engine != "fallback" {
		t.Fatalf("bundle attempts: %+v", b.Attempts)
	}
	if b.Engines.Primary != "circlerule" {
		t.Fatalf("bundle engines: %+v", b.Engines)
	}
	if len(b.Rects) == 0 || b.LayoutName != "quad" {
		t.Fatalf("bundle geometry: %d rects, layout %q", len(b.Rects), b.LayoutName)
	}
	// The captured raster must be occupied — it is the failing input.
	occ := 0
	for _, v := range b.Target {
		if v > 0.5 {
			occ++
		}
	}
	if occ == 0 {
		t.Fatal("bundle target raster is empty")
	}

	// Replay from the bundle alone: same attempt-by-attempt failures.
	reply := ServeTask(context.Background(), &procpool.Task{Bundle: *b}, faulted, faulted, nil)
	routcomes := reply.Outcomes
	if reply.Err != "" || reply.Path != PathEmpty || len(routcomes) != len(b.Attempts) {
		t.Fatalf("replay: %+v", reply)
	}
	for i, oc := range routcomes {
		if oc.Err != b.Attempts[i].Err || oc.Engine != b.Attempts[i].Engine {
			t.Fatalf("attempt %d diverged: replayed (%s) %q, recorded (%s) %q",
				i, oc.Engine, oc.Err, b.Attempts[i].Engine, b.Attempts[i].Err)
		}
	}
	if got := joinFailures(routcomes); got != st.Failure {
		t.Fatalf("replayed failure %q != recorded %q", got, st.Failure)
	}
}

// A task on the wire carries no layout rects: the worker never reads
// them, and finding them scans every rect of the layout, which a
// dispatch must not pay per tile. Only a bundle saved to disk has them.
func TestTaskCarriesNoRects(t *testing.T) {
	l := quadLayout()
	cfg := testConfig()
	env := &runEnv{cfg: cfg, lay: l, ix: layout.NewWindowIndex(l, cfg.GridN)}
	j := planTiles(cfg)[0]
	target, occupied := env.ix.Window(j.cx-cfg.HaloPx, j.cy-cfg.HaloPx, cfg.window(), cfg.window())
	if !occupied {
		t.Fatal("tile 0 of the quad layout is empty")
	}
	if task := env.buildTask(j, target, 0); len(task.Bundle.Rects) != 0 {
		t.Fatalf("task for tile 0 carries %d layout rects", len(task.Bundle.Rects))
	}
}

// TestQuarantineWriteFailureDegrades: a quarantine directory that cannot
// be created loses that tile's forensics — counted in
// Result.QuarantineDropped — but never the tile or the run.
func TestQuarantineWriteFailureDegrades(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig()
	cfg.Optimize = InjectFaults(ruleFallback(), FaultPlan{0: {{Panic: true}}})
	cfg.Fallback = nil
	cfg.TileRetries = 0
	cfg.QuarantineDir = filepath.Join(blocker, "sub") // MkdirAll must fail

	res, err := RunContext(context.Background(), bigLayout(), cfg)
	if err != nil {
		t.Fatalf("quarantine write failure must not fail the run: %v", err)
	}
	if res.Empty != 1 || res.QuarantineDropped != 1 {
		t.Fatalf("want 1 empty tile with 1 dropped bundle, got empty=%d dropped=%d", res.Empty, res.QuarantineDropped)
	}
	if res.TileStats[0].Bundle != "" {
		t.Fatalf("dropped bundle must not be recorded as saved: %q", res.TileStats[0].Bundle)
	}
}
