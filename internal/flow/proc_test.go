package flow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"cfaopc/internal/layout"
	"cfaopc/internal/netpool"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestMain doubles as the tile-worker binary: when the supervisor
// re-executes this test executable with the worker env set, it serves
// tasks instead of running tests. The runner resolves the test-only
// engine names the proc tests put into Engines metadata.
func TestMain(m *testing.M) {
	if procpool.InWorker() {
		if addr := os.Getenv(netListenEnv); addr != "" {
			// Spawned as a loopback TCP host for the net tests.
			runNetHost(addr)
		}
		srv := &netpool.Server{Runner: testRunner}
		if err := srv.ServeConn(procpool.Stdio()); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testRunner is the worker-side task executor the re-exec branches
// serve (stdin/stdout and TCP alike): the proc tests' miniature of the engine
// registry, with the fault plan the spawning test handed over
// (faultPlanEnv) wrapped around both engines.
func testRunner() procpool.Runner {
	return func(ctx context.Context, task *procpool.Task, sink procpool.Sink) procpool.Reply {
		b := &task.Bundle
		reply := procpool.Reply{Index: b.Tile.Index}
		primary, ok := testEngine(b.Engines.Primary, b.Engines.Iters)
		if !ok {
			reply.Err = "unknown test engine " + b.Engines.Primary
			return reply
		}
		fallback, _ := testEngine(b.Engines.Fallback, b.Engines.Iters)
		plan, err := readWorkerFaultPlan()
		if err != nil {
			reply.Err = "fault plan: " + err.Error()
			return reply
		}
		chain := withFaults(Config{Optimize: primary, Fallback: fallback}, plan)
		return ServeTask(ctx, task, chain.Optimize, chain.Fallback, sink)
	}
}

// testEngine maps the engine names the proc tests use ("rule",
// "circle") onto the package's test optimizers — a miniature of the
// registry lookup cmd binaries do via internal/engine.
func testEngine(name string, iters int) (Optimizer, bool) {
	switch name {
	case "rule":
		return ruleFallback(), true
	case "circle":
		if iters <= 0 {
			iters = 8
		}
		return circleOptimizer(iters), true
	}
	return nil, false
}

// testWorkerCmd re-executes this test binary as the worker subprocess,
// with env added to its environment.
func testWorkerCmd(t testing.TB, env ...string) func() *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func() *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), env...)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// faultedProc runs plan in cfg's worker subprocesses and, through
// withFaults, in this process.
func faultedProc(t testing.TB, cfg Config, plan FaultPlan) Config {
	t.Helper()
	env, _ := workerFaultPlan(t, plan)
	cfg.WorkerCmd = testWorkerCmd(t, env)
	return withFaults(cfg, plan)
}

// procConfig is the shared proc-mode config: cheap deterministic rule
// engine on both rungs, fast respawn backoff so crash loops resolve in
// test time.
func procConfig(t testing.TB) Config {
	cfg := testConfig()
	cfg.Optimize = ruleFallback()
	cfg.Fallback = ruleFallback()
	cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
	cfg.ProcWorkers = 1
	cfg.WorkerCmd = testWorkerCmd(t)
	cfg.linkBackoff = 5 * time.Millisecond
	return cfg
}

// serialRef strips proc and remote mode off a config, yielding the
// in-process serial run every proc/net test compares against
// (Fault.Kill is a no-op in-process, so the optimizers withFaults
// wrapped drive both runs with one plan).
func serialRef(cfg Config) Config {
	cfg.ProcWorkers = 0
	cfg.WorkerCmd = nil
	cfg.RemoteHosts = nil
	cfg.TileWorkers = 1
	return cfg
}

func TestProcValidation(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.ProcWorkers = -1
	if _, err := RunContext(context.Background(), l, cfg); err == nil {
		t.Error("negative ProcWorkers accepted")
	}
	cfg = procConfig(t)
	cfg.WorkerCmd = nil
	if _, err := RunContext(context.Background(), l, cfg); err == nil {
		t.Error("ProcWorkers without WorkerCmd accepted")
	}
	cfg = procConfig(t)
	cfg.Engines = quarantine.EngineMeta{}
	if _, err := RunContext(context.Background(), l, cfg); err == nil {
		t.Error("ProcWorkers without engine metadata accepted")
	}
}

// TestProcAcceptance is the issue's acceptance scenario: four proc
// workers, two tiles SIGKILLed mid-tile (recover on respawn), one tile
// crash-looping its slot into the circuit breaker — the run completes,
// the degradations are recorded, and shots and stats are byte-identical
// to the serial in-process reference.
func TestProcAcceptance(t *testing.T) {
	l := quadLayout()
	plan := FaultPlan{
		1: {{Kill: 1}},       // killed on the first dispatch, clean on respawn
		2: {{Kill: 1}},       // same, on another tile
		3: {{Kill: 1 << 30}}, // crash-loops until the breaker trips
	}
	mk := func() Config {
		cfg := procConfig(t)
		cfg.ProcWorkers = 4
		cfg.linkCrashLimit = 3
		return faultedProc(t, cfg, plan)
	}

	ref, err := RunContext(context.Background(), l, serialRef(mk()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.LinkCrashes != 0 || ref.LinkBroken != 0 {
		t.Fatalf("serial reference recorded proc activity: %+v", ref)
	}

	res, err := RunContext(context.Background(), l, mk())
	if err != nil {
		t.Fatal(err)
	}
	// Tiles 1 and 2: one failed dispatch each. Tile 3: exactly
	// linkCrashLimit failures, then the breaker. The counts are exact
	// because a slot handles one tile at a time and the consecutive
	// counter resets on every success.
	if res.LinkCrashes != 5 {
		t.Fatalf("LinkCrashes = %d, want 5", res.LinkCrashes)
	}
	if res.LinkBroken != 1 {
		t.Fatalf("LinkBroken = %d, want 1", res.LinkBroken)
	}
	everyTileDone(t, res)
	for idx, want := range map[int]struct {
		proc    bool
		crashes int
	}{
		0: {true, 0},
		1: {true, 1},
		2: {true, 1},
		3: {false, 3}, // circuit-broken: finished in-process
	} {
		st := res.TileStats[idx]
		if st.Proc != want.proc || st.ProcCrashes != want.crashes {
			t.Fatalf("tile %d: proc=%v crashes=%d, want proc=%v crashes=%d",
				idx, st.Proc, st.ProcCrashes, want.proc, want.crashes)
		}
		if st.Path != PathPrimary {
			t.Fatalf("tile %d path = %q", idx, st.Path)
		}
	}
	sameResult(t, res, ref)

	// A worker SIGKILLed in the middle of a CircleOpt tile — from
	// outside, on the seventh heartbeat tile 0 forwards — costs that one
	// dispatch: the respawned worker recomputes the tile from scratch,
	// every heartbeat again, to the serial bytes.
	if testing.Short() {
		return // CircleOpt tiles are slow under the race detector
	}
	mk2 := func() Config {
		cfg := procConfig(t)
		cfg.Optimize = circleOptimizer(8)
		cfg.Fallback = nil
		cfg.Engines = quarantine.EngineMeta{Primary: "circle", Iters: 8}
		return cfg
	}
	ref2, err := RunContext(context.Background(), bigLayout(), serialRef(mk2()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk2()
	var worker atomic.Pointer[exec.Cmd]
	spawn := cfg.WorkerCmd
	cfg.WorkerCmd = func() *exec.Cmd {
		cmd := spawn()
		worker.Store(cmd)
		return cmd
	}
	var beats atomic.Int32
	cfg.Events = func(ev Event) {
		if ev.Kind == EventBeat && ev.Tile == 0 && beats.Add(1) == 7 {
			worker.Load().Process.Kill()
		}
	}
	res2, err := RunContext(context.Background(), bigLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := res2.TileStats[0]; res2.LinkCrashes != 1 || !st.Proc || st.ProcCrashes != 1 {
		t.Fatalf("LinkCrashes = %d, tile 0 stat %+v; want exactly the one kill", res2.LinkCrashes, st)
	}
	sameResult(t, res2, ref2)
}

// TestCrashMatrix is the CI crash-matrix entry point: the fault kind
// and worker count come from the environment (one cell per CI job), or
// every cell runs when the variables are unset.
func TestCrashMatrix(t *testing.T) {
	kinds := []string{"kill", "crashloop"}
	if v := os.Getenv("FLOW_PROC_FAULT"); v != "" && v != "all" {
		kinds = []string{v}
	}
	counts := []int{1, 4}
	if v := os.Getenv("FLOW_PROC_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FLOW_PROC_WORKERS = %q", v)
		}
		counts = []int{n}
	}
	l := quadLayout()
	for _, kind := range kinds {
		for _, workers := range counts {
			t.Run(fmt.Sprintf("%s/procworkers=%d", kind, workers), func(t *testing.T) {
				var plan FaultPlan
				crashLimit := 3
				wantCrashes, wantBroken := 0, 0
				switch kind {
				case "kill":
					// Every tile loses its worker once mid-tile; every
					// respawn recovers.
					plan = FaultPlan{0: {{Kill: 1}}, 1: {{Kill: 1}}, 2: {{Kill: 1}}, 3: {{Kill: 1}}}
					wantCrashes = 4
				case "crashloop":
					// One tile kills every worker it ever gets until its
					// slot circuit-breaks to in-process execution.
					plan = FaultPlan{1: {{Kill: 1 << 30}}}
					crashLimit = 2
					wantCrashes, wantBroken = 2, 1
				default:
					t.Fatalf("unknown fault kind %q", kind)
				}
				mk := func() Config {
					cfg := procConfig(t)
					cfg.ProcWorkers = workers
					cfg.linkCrashLimit = crashLimit
					return faultedProc(t, cfg, plan)
				}
				ref, err := RunContext(context.Background(), l, serialRef(mk()))
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunContext(context.Background(), l, mk())
				if err != nil {
					t.Fatal(err)
				}
				if res.LinkCrashes != wantCrashes || res.LinkBroken != wantBroken {
					t.Fatalf("crashes=%d broken=%d, want %d/%d",
						res.LinkCrashes, res.LinkBroken, wantCrashes, wantBroken)
				}
				sameResult(t, res, ref)
			})
		}
	}
}

// TestWorkerSoftErrorBreaksToFallback covers the non-crash failure
// lane: a worker that stays alive but reports a deterministic task
// error (here: engine metadata it cannot resolve) counts toward the
// breaker exactly like a crash, and the tile completes in-process.
func TestWorkerSoftErrorBreaksToFallback(t *testing.T) {
	l := bigLayout() // two occupied tiles of four
	cfg := procConfig(t)
	cfg.Engines.Primary = "bogus" // the worker-side registry rejects it
	cfg.linkCrashLimit = 2
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCrashes != 2 || res.LinkBroken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.LinkCrashes, res.LinkBroken)
	}
	for _, st := range res.TileStats {
		if st.Proc {
			t.Fatalf("tile %d claims a proc result after circuit break", st.Index)
		}
	}
	ref, err := RunContext(context.Background(), l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestWorkerSpawnFailureBreaks: a WorkerCmd that cannot even start
// (missing binary) is a failed dispatch, not a run failure — the
// breaker degrades the slot and the run completes in-process.
func TestWorkerSpawnFailureBreaks(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.linkCrashLimit = 2
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	cfg.WorkerCmd = func() *exec.Cmd { return exec.Command(missing) }
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCrashes != 2 || res.LinkBroken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.LinkCrashes, res.LinkBroken)
	}
	ref, err := RunContext(context.Background(), l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestNonWorkerBinarySilenceBreaks: a binary that starts but never
// answers the coordinator's Hello is killed at the handshake deadline
// (bounded by linkSilence) and counted as a failed dispatch, so a
// WorkerCmd that names the wrong binary degrades instead of wedging the
// run.
func TestNonWorkerBinarySilenceBreaks(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.linkCrashLimit = 2
	cfg.linkSilence = 150 * time.Millisecond
	cfg.WorkerCmd = func() *exec.Cmd { return exec.Command("sleep", "60") }
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCrashes != 2 || res.LinkBroken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.LinkCrashes, res.LinkBroken)
	}
	ref, err := RunContext(context.Background(), l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestCancelResumeInProcess: a run canceled mid-chip returns no Result,
// the tile that finished before the cancel is in the journal, and a
// resume completes the run byte-identically.
func TestCancelResumeInProcess(t *testing.T) {
	testCancelResume(t, false)
}

// TestProcCancelResume is the same cancel contract in proc mode, with a
// worker crash thrown in before the interrupt: crash, respawn, cancel,
// checkpoint, resume — stitched output still byte-identical to the
// uninterrupted serial reference.
func TestProcCancelResume(t *testing.T) {
	testCancelResume(t, true)
}

func testCancelResume(t *testing.T, proc bool) {
	l := quadLayout()
	mk := func(plan FaultPlan) Config {
		cfg := procConfig(t)
		if !proc {
			cfg.ProcWorkers = 0
			cfg.WorkerCmd = nil
			cfg.TileWorkers = 1
			return withFaults(cfg, plan)
		}
		return faultedProc(t, cfg, plan)
	}
	// On the one lane, tile 0 finishes (in proc mode after losing its
	// first worker mid-tile) and is journaled before tile 1 starts; tile
	// 1 heartbeats until the run is canceled on its first beat.
	crash := FaultPlan{}
	if proc {
		crash[0] = []Fault{{Kill: 1}}
	}
	ref, err := RunContext(context.Background(), l, serialRef(mk(crash)))
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mk(FaultPlan{0: crash[0], 1: {{Sleep: 10 * time.Second, BeatEvery: 10 * time.Millisecond}}})
	cfg.CheckpointPath = ckpt
	cfg.Events = func(ev Event) {
		if ev.Kind == EventBeat && ev.Tile == 1 {
			cancel()
		}
	}
	if res, err := RunContext(ctx, l, cfg); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: result %v, err %v; want no result and context.Canceled", res, err)
	}

	cfg = mk(crash)
	cfg.CheckpointPath = ckpt
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed <= 0 || res.Resumed >= res.Tiles {
		t.Fatalf("resumed %d of %d tiles; the cancel landed outside the run", res.Resumed, res.Tiles)
	}
	if proc && res.TileStats[0].ProcCrashes != 1 {
		t.Fatalf("journaled tile 0 records %d worker crashes, want the 1 before the interrupt", res.TileStats[0].ProcCrashes)
	}
	sameResult(t, res, ref)
}

// TestServeTaskHooks drives the worker-side entry point in-process: a
// hand-built task (the same shape buildTask wires) must stream beats
// through the sink, and serving it again must land on identical shots —
// the property crash-redispatch determinism rests on.
func TestServeTaskHooks(t *testing.T) {
	l := bigLayout()
	base := testConfig()
	window := base.CorePx + 2*base.HaloPx
	dx := float64(l.TileNM) / float64(base.GridN)
	oCfg := base.Optics
	oCfg.TileNM = float64(window) * dx
	ix := layout.NewWindowIndex(l, base.GridN)
	target, occupied := ix.Window(-base.HaloPx, -base.HaloPx, window, window)
	if !occupied {
		t.Fatal("tile 0 of bigLayout should be occupied")
	}
	mkTask := func() *procpool.Task {
		return &procpool.Task{
			Bundle: quarantine.Bundle{
				FormatVersion: quarantine.FormatVersion,
				GridN:         base.GridN,
				CorePx:        base.CorePx,
				HaloPx:        base.HaloPx,
				KOpt:          base.KOpt,
				Optics:        oCfg,
				Engines:       quarantine.EngineMeta{Primary: "circle", Iters: 8},
				Tile: quarantine.Tile{
					Index: 0, CX: 0, CY: 0,
					OriginX: -base.HaloPx, OriginY: -base.HaloPx, WindowPx: window,
				},
				TargetW: window,
				TargetH: window,
				Target:  append([]float64(nil), target.Data...),
			},
		}
	}

	beats := 0
	sink := func(index, iter int, loss float64) { beats++ }
	reply := ServeTask(context.Background(), mkTask(), circleOptimizer(8), nil, sink)
	if reply.Err != "" {
		t.Fatalf("reply error: %s", reply.Err)
	}
	if reply.Path != PathPrimary || len(reply.Shots) == 0 {
		t.Fatalf("reply path %q with %d shots", reply.Path, len(reply.Shots))
	}
	if beats == 0 {
		t.Fatal("no heartbeats streamed")
	}

	// A redispatch is the same task served again, from scratch.
	reply2 := ServeTask(context.Background(), mkTask(), circleOptimizer(8), nil, func(int, int, float64) {})
	if reply2.Err != "" || !reflect.DeepEqual(reply2.Shots, reply.Shots) {
		t.Fatalf("second serving: err %q, %d shots vs %d", reply2.Err, len(reply2.Shots), len(reply.Shots))
	}

	// A task-grade bundle failing validation is a soft error, not a panic.
	bad := mkTask()
	bad.Bundle.Target = nil
	if r := ServeTask(context.Background(), bad, circleOptimizer(8), nil, nil); r.Err == "" {
		t.Fatal("invalid task accepted")
	}
}

// TestLinkKnobDefaults pins the worker-supervision constants every shipped
// run gets, and that this package's tests can shorten them.
func TestLinkKnobDefaults(t *testing.T) {
	knobs := func(cfg Config) (int, time.Duration, time.Duration) {
		s := (&runEnv{cfg: cfg}).newSlot(0, "", &connector{}, nil)
		return s.breaker.Limit, s.silence, s.backoff.Base
	}
	if limit, silence, backoff := knobs(Config{}); limit != 3 || silence != 10*time.Second || backoff != 50*time.Millisecond {
		t.Errorf("defaults: crash limit %d, silence %s, backoff %s", limit, silence, backoff)
	}
	set := Config{linkCrashLimit: 7, linkSilence: time.Second, linkBackoff: time.Millisecond}
	if limit, silence, backoff := knobs(set); limit != 7 || silence != time.Second || backoff != time.Millisecond {
		t.Error("overrides not honored")
	}
	if _, ok := TileInfoFrom(context.Background()); ok {
		t.Error("TileInfoFrom invented info on a bare context")
	}
}
