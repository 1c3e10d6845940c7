package server

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/geom"
	"cfaopc/internal/layout"
	"cfaopc/internal/wcache"
)

// specFor builds a normalized, validated spec from a fragment.
func specFor(t *testing.T, mutate func(*JobSpec)) *JobSpec {
	t.Helper()
	s := &JobSpec{Layout: "t.glp", GridN: 128, TileCore: 64, Iters: 2, KOpt: 3}
	if mutate != nil {
		mutate(s)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEstimateCostShape(t *testing.T) {
	small := EstimateCost(specFor(t, nil), 2)
	if small.PeakBytes <= 0 || small.FlowBytes <= 0 || small.Tiles != 4 || small.IterUnits < 1 {
		t.Fatalf("degenerate cost: %+v", small)
	}
	if small.FlowBytes >= small.PeakBytes {
		t.Fatalf("flow bytes %d should be a strict part of peak %d (simulator term missing)", small.FlowBytes, small.PeakBytes)
	}
	// Deterministic: same spec, same rects, same price.
	if again := EstimateCost(specFor(t, nil), 2); again != small {
		t.Fatalf("cost not deterministic: %+v vs %+v", small, again)
	}
	// Monotone in the knobs that dominate memory and work.
	big := EstimateCost(specFor(t, func(s *JobSpec) { s.GridN = 512; s.TileCore = 128; s.TileHalo = 64 }), 2)
	if big.PeakBytes <= small.PeakBytes || big.Tiles <= small.Tiles {
		t.Fatalf("bigger grid should price higher: small %+v big %+v", small, big)
	}
	iters := EstimateCost(specFor(t, func(s *JobSpec) { s.Iters = 200 }), 2)
	if iters.IterUnits <= small.IterUnits {
		t.Fatalf("more iterations should mean more work units: %+v vs %+v", small, iters)
	}
	workers := EstimateCost(specFor(t, func(s *JobSpec) { s.TileWorkers = 4 }), 2)
	if workers.PeakBytes <= small.PeakBytes {
		t.Fatalf("more workers should price higher: %+v vs %+v", small, workers)
	}
}

// TestEstimateCostPricesTheMaskBand holds EstimateCost's mask term to
// what WriteMask allocates. Two grids with the same tiles and the same
// index band headers are priced apart by their bands alone, and writing
// an empty mask allocates its band plus one row of 255s and the file's
// bookkeeping — 1 byte per pixel of the band, not a float64.
func TestEstimateCostPricesTheMaskBand(t *testing.T) {
	price := func(n int) int64 {
		return EstimateCost(&JobSpec{GridN: n, TileCore: 1024, KOpt: 1, Iters: 1}, 0).FlowBytes
	}
	if got, want := price(2048)-price(2024), maskBandBytes(2048)-maskBandBytes(2024); got != want {
		t.Fatalf("estimates of 2048 and 2024 px differ by %d bytes, want the bands' %d", got, want)
	}
	const n = 1024
	path := filepath.Join(t.TempDir(), "mask.pgm")
	var least uint64
	for i := 0; i < 3; i++ { // the least of three, so a stray allocation elsewhere does not count
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := WriteMask(nil, path, n, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	if band := uint64(maskBandBytes(n)); least < band || least > band+n+4096 {
		t.Fatalf("WriteMask allocated %d bytes at %d px; its band is priced at %d", least, n, band)
	}
}

func TestGovernorAdmission(t *testing.T) {
	g := newGovernor(GovernorConfig{MemBudget: 1000})

	// A job bigger than the whole budget is a typed permanent rejection.
	err := g.admit("job-a", Cost{PeakBytes: 1001, IterUnits: 1})
	if !errors.Is(err, ErrJobTooBig) {
		t.Fatalf("want ErrJobTooBig, got %v", err)
	}

	if err := g.admit("job-b", Cost{PeakBytes: 600, IterUnits: 10}); err != nil {
		t.Fatal(err)
	}
	// Over the remaining budget: retryable, with reason and a hint.
	err = g.admit("job-c", Cost{PeakBytes: 600, IterUnits: 10})
	var admit *AdmitError
	if !errors.As(err, &admit) {
		t.Fatalf("want AdmitError, got %v", err)
	}
	if admit.Reason != "over_budget" {
		t.Fatalf("reason = %q, want over_budget", admit.Reason)
	}
	if admit.RetryAfter < time.Second || admit.RetryAfter > 5*time.Minute {
		t.Fatalf("RetryAfter %v outside clamp", admit.RetryAfter)
	}
	// The same history prices the same retry hint: determinism.
	err2 := g.admit("job-c", Cost{PeakBytes: 600, IterUnits: 10})
	var admit2 *AdmitError
	if !errors.As(err2, &admit2) || admit2.RetryAfter != admit.RetryAfter {
		t.Fatalf("retry hints differ for identical state: %v vs %v", admit, err2)
	}

	// Releasing frees the budget; the same job now fits.
	g.release("job-b")
	if err := g.admit("job-c", Cost{PeakBytes: 600, IterUnits: 10}); err != nil {
		t.Fatalf("admission after release: %v", err)
	}

	// Paused admissions reject everything that fits, with their own
	// reason.
	g.observe(g.heapHigh)
	err = g.admit("job-d", Cost{PeakBytes: 1, IterUnits: 1})
	if !errors.As(err, &admit) || admit.Reason != "admission_paused" {
		t.Fatalf("want admission_paused, got %v", err)
	}

	h := g.health()
	if h.Rejected != 4 || h.Committed != 600 || h.CommittedJobs != 1 {
		t.Fatalf("health = %+v", h)
	}
}

func TestGovernorLadder(t *testing.T) {
	g := newGovernor(GovernorConfig{MemBudget: 800})
	step := func(heap int64, wantFrom, wantTo GovLevel, wantChanged bool) {
		t.Helper()
		from, to, changed := g.observe(heap)
		if from != wantFrom || to != wantTo || changed != wantChanged {
			t.Fatalf("observe(%d) = (%v,%v,%v), want (%v,%v,%v)", heap, from, to, changed, wantFrom, wantTo, wantChanged)
		}
	}
	step(100, GovNormal, GovNormal, false)
	step(600, GovNormal, GovShrink, true)  // low watermark crossed
	step(700, GovShrink, GovShrink, false) // holding
	step(800, GovShrink, GovPause, true)   // high watermark crossed
	step(900, GovPause, GovShed, true)     // pressure held: escalate
	step(900, GovShed, GovShed, false)     // held again: shed rung re-arms
	step(700, GovShed, GovShrink, true)    // receding: back to shrink only
	step(100, GovShrink, GovNormal, true)  // fully recovered
	h := g.health()
	if h.Shrinks != 1 || h.Pauses != 1 || h.Transitions != 5 || h.Level != "normal" {
		t.Fatalf("health after walk = %+v", h)
	}
}

// blockingRun is a runSpec stand-in that publishes nothing and blocks
// until its context dies, propagating the context error like the flow.
func blockingRun(ctx context.Context, _ *layout.Layout, _ *JobSpec, _ RunOpts) (*flow.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// heapScript is a settable fake heap reading for ladder tests.
type heapScript struct {
	mu sync.Mutex
	v  int64
}

func (h *heapScript) set(v int64) { h.mu.Lock(); h.v = v; h.mu.Unlock() }
func (h *heapScript) read() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.v }

// governedManager builds a Manager with a scripted heap, a fake
// executor, and a tiny budget, for pulse-driven tests.
func governedManager(t *testing.T, heap *heapScript, mutate func(*ManagerConfig)) *Manager {
	t.Helper()
	root := testLayoutRoot(t)
	cfg := ManagerConfig{
		DataDir:    filepath.Join(t.TempDir(), "data"),
		LayoutRoot: root,
		MaxActive:  2,
		QueueCap:   16,
		Governor:   GovernorConfig{MemBudget: 64 << 20, ReadHeap: heap.read},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.runSpec = blockingRun
	t.Cleanup(m.Stop)
	return m
}

func waitJobState(t *testing.T, m *Manager, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s ended %s (%s), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestPressureLadderEndToEnd walks the full degradation ladder through
// Manager.Pulse: cache shrink, admission pause, shed of the youngest
// over-budget running job, then recovery — with every transition
// announced on live job streams.
func TestPressureLadderEndToEnd(t *testing.T) {
	heap := &heapScript{}
	cache, err := wcache.New(wcache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m := governedManager(t, heap, func(cfg *ManagerConfig) { cfg.Cache = cache })
	m.Start()

	// Two running jobs: one light (within its budget share), one heavy
	// (over the 32 MiB share). The heavy one is the shed candidate.
	light, err := m.Submit(specFor(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := m.Submit(specFor(t, func(s *JobSpec) {
		s.GridN = 512
		s.TileCore = 128
		s.TileHalo = 64
		s.KOpt = 8
		s.TileWorkers = 4
	}))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.CostBytes <= m.gov.budget/2 {
		t.Fatalf("heavy job cost %d not over its %d share; test needs a heavier spec", heavy.CostBytes, m.gov.budget/2)
	}
	waitJobState(t, m, light.ID, JobRunning)
	waitJobState(t, m, heavy.ID, JobRunning)

	// Rung 1: low watermark -> cache shrinks.
	heap.set(49 << 20)
	m.Pulse()
	if b := cache.Limits(); b != (1<<20)/4 {
		t.Fatalf("cache not shrunk: limit %d", b)
	}

	// Rung 2: high watermark -> admissions pause.
	heap.set(65 << 20)
	m.Pulse()
	_, err = m.Submit(specFor(t, nil))
	var admit *AdmitError
	if !errors.As(err, &admit) || admit.Reason != "admission_paused" {
		t.Fatalf("submissions should pause under pressure, got %v", err)
	}

	// Rung 3: pressure holds -> the heavy job is shed; the light one
	// keeps running.
	m.Pulse()
	st := waitTerminal(t, m, heavy.ID)
	if st.State != JobFailed || !strings.HasPrefix(st.Error, "shed:") {
		t.Fatalf("heavy job = %s (%q), want failed shed:", st.State, st.Error)
	}
	if ls, _ := m.Status(light.ID); ls.State != JobRunning {
		t.Fatalf("light job was %s; shedding must only hit over-budget jobs", ls.State)
	}

	// Recovery: heap back under the low watermark -> cache restored,
	// admissions open.
	heap.set(1 << 20)
	m.Pulse()
	if b := cache.Limits(); b != 1<<20 {
		t.Fatalf("cache not restored: limit %d", b)
	}
	if _, err := m.Submit(specFor(t, nil)); err != nil {
		t.Fatalf("admissions should reopen after recovery: %v", err)
	}

	h := m.GovernorHealth()
	if h.Sheds != 1 || h.Shrinks != 1 || h.Pauses != 1 {
		t.Fatalf("governor health = %+v", h)
	}

	// The ladder transitions were journaled on the light job's stream.
	sub, err := m.Subscribe(light.ID, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(light.ID, sub)
	evs, _ := sub.drain()
	var levels []string
	for _, ev := range evs {
		if ev.Kind == "governor" {
			levels = append(levels, ev.From+">"+ev.State)
		}
	}
	want := "shrink>pause"
	if len(levels) < 3 || levels[1] != want {
		t.Fatalf("governor events on stream = %v, want normal>shrink, %s, pause>shed, ...", levels, want)
	}
}

func TestWedgeWatchdog(t *testing.T) {
	heap := &heapScript{}
	m := governedManager(t, heap, func(cfg *ManagerConfig) { cfg.WedgeTimeout = 50 * time.Millisecond })
	m.Start()
	st, err := m.Submit(specFor(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, st.ID, JobRunning)
	// blockingRun publishes nothing, so lastEv stays at dispatch time.
	time.Sleep(80 * time.Millisecond)
	m.Pulse()
	fin := waitTerminal(t, m, st.ID)
	if fin.State != JobFailed || !strings.HasPrefix(fin.Error, "wedged:") {
		t.Fatalf("job = %s (%q), want failed wedged:", fin.State, fin.Error)
	}
	if h := m.GovernorHealth(); h.Wedges != 1 {
		t.Fatalf("wedges = %d, want 1", h.Wedges)
	}
}

// tailRun is a runSpec stand-in for a run stopped where nothing can hear
// it — after its last tile, inside ordering or writing: it publishes
// nothing, waits for its context to end, and returns success anyway.
func tailRun(ctx context.Context, _ *layout.Layout, _ *JobSpec, _ RunOpts) (*flow.Result, error) {
	<-ctx.Done()
	return &flow.Result{Shots: make([]geom.Circle, 3)}, nil
}

// TestStopInTheTailGetsItsTypedState drives each stop into a run that
// finishes regardless. A DELETE, a deadline and a shed read first and
// type the ending; a wedge and a daemon shutdown end only what they
// interrupt, so the finished run is done and no wedge is counted.
func TestStopInTheTailGetsItsTypedState(t *testing.T) {
	heavy := func(s *JobSpec) {
		s.GridN, s.TileCore, s.TileHalo, s.KOpt, s.TileWorkers = 512, 128, 64, 8, 4
	}
	for _, tc := range []struct {
		name   string
		config func(*ManagerConfig)
		spec   func(*JobSpec)
		stop   func(t *testing.T, m *Manager, heap *heapScript, id string)
		state  JobState
		prefix string
		health GovernorHealth // the ending counters only
	}{
		{
			name:  "delete",
			stop:  func(t *testing.T, m *Manager, _ *heapScript, id string) { m.Cancel(id) },
			state: JobCanceled,
		},
		{
			name:   "deadline",
			spec:   func(s *JobSpec) { s.DeadlineMS = 60 },
			stop:   func(*testing.T, *Manager, *heapScript, string) {},
			state:  JobDeadline,
			prefix: "deadline 60ms exceeded",
			health: GovernorHealth{Expired: 1},
		},
		{
			name: "shed",
			spec: heavy,
			stop: func(_ *testing.T, m *Manager, heap *heapScript, _ string) {
				heap.set(65 << 20)
				m.Pulse() // pause
				m.Pulse() // shed
			},
			state:  JobFailed,
			prefix: "shed:",
			health: GovernorHealth{Sheds: 1},
		},
		{
			name:   "wedge",
			config: func(cfg *ManagerConfig) { cfg.WedgeTimeout = 50 * time.Millisecond },
			stop: func(_ *testing.T, m *Manager, _ *heapScript, _ string) {
				time.Sleep(80 * time.Millisecond) // tailRun publishes nothing
				m.Pulse()
			},
			state: JobDone,
		},
		{
			name:  "shutdown",
			stop:  func(_ *testing.T, m *Manager, _ *heapScript, _ string) { m.Stop() },
			state: JobDone,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := &heapScript{}
			m := governedManager(t, heap, tc.config)
			m.runSpec = tailRun
			m.Start()
			st, err := m.Submit(specFor(t, tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			waitJobState(t, m, st.ID, JobRunning)
			tc.stop(t, m, heap, st.ID)
			fin := waitTerminal(t, m, st.ID)
			if fin.State != tc.state || !strings.HasPrefix(fin.Error, tc.prefix) {
				t.Fatalf("job = %s (%q), want %s (%q…)", fin.State, fin.Error, tc.state, tc.prefix)
			}
			if tc.state == JobDone && fin.Shots != 3 {
				t.Fatalf("done job reports %d shots, want tailRun's 3", fin.Shots)
			}
			h := m.GovernorHealth()
			if got := (GovernorHealth{Expired: h.Expired, Sheds: h.Sheds, Wedges: h.Wedges}); got != tc.health {
				t.Fatalf("ending counters = %+v, want %+v", got, tc.health)
			}
		})
	}
}

func TestDeadlineQueuedAndTTL(t *testing.T) {
	heap := &heapScript{}
	for _, tc := range []struct {
		name    string
		mutate  func(*ManagerConfig)
		spec    func(*JobSpec)
		wantMsg string
	}{
		{
			name:    "per-job deadline",
			spec:    func(s *JobSpec) { s.DeadlineMS = 20 },
			wantMsg: "deadline 20ms exceeded",
		},
		{
			name:    "queue TTL",
			mutate:  func(cfg *ManagerConfig) { cfg.QueueTTL = 20 * time.Millisecond },
			wantMsg: "queue TTL exceeded",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := governedManager(t, heap, tc.mutate)
			// Not started: the job stays queued until the sweep fires.
			st, err := m.Submit(specFor(t, tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			if st.DeadlineUnixMS == 0 {
				t.Fatal("status should expose the absolute deadline")
			}
			time.Sleep(30 * time.Millisecond)
			m.Pulse()
			fin, err := m.Status(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if fin.State != JobDeadline || !strings.Contains(fin.Error, tc.wantMsg) {
				t.Fatalf("job = %s (%q), want %s with %q", fin.State, fin.Error, JobDeadline, tc.wantMsg)
			}
			if m.QueueDepth() != 0 {
				t.Fatal("expired job still queued")
			}
			if h := m.GovernorHealth(); h.Expired != 1 || h.Committed != 0 {
				t.Fatalf("governor health = %+v, want expired=1 committed=0", h)
			}
			// The terminal event is journaled: a fresh subscriber replays
			// it from seq 0.
			sub, err := m.Subscribe(st.ID, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Unsubscribe(st.ID, sub)
			evs, _ := sub.drain()
			last := evs[len(evs)-1]
			if last.Kind != "state" || last.State != string(JobDeadline) {
				t.Fatalf("last journaled event = %+v, want terminal %s", last, JobDeadline)
			}
		})
	}
}

func TestDeadlineWhileRunning(t *testing.T) {
	heap := &heapScript{}
	m := governedManager(t, heap, nil)
	m.Start()
	st, err := m.Submit(specFor(t, func(s *JobSpec) { s.DeadlineMS = 60 }))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, st.ID, JobRunning)
	// No pulse needed: the run context's deadline fires on its own.
	fin := waitTerminal(t, m, st.ID)
	if fin.State != JobDeadline || !strings.Contains(fin.Error, "deadline 60ms exceeded") {
		t.Fatalf("job = %s (%q), want %s", fin.State, fin.Error, JobDeadline)
	}
}

// TestDeadlineAnchorSurvivesRestart proves the deadline is measured
// from first admission, not from the latest requeue: a manager reopened
// on the same data directory must expire a still-pending job using the
// original anchor. Everything else about the queued job survives too:
// the requeue reports the status Submit did, but for the newer last_seq
// of its requeue event, and reserves the same governor bytes.
func TestDeadlineAnchorSurvivesRestart(t *testing.T) {
	heap := &heapScript{}
	root := testLayoutRoot(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	cfg := ManagerConfig{
		DataDir:    dataDir,
		LayoutRoot: root,
		Governor:   GovernorConfig{ReadHeap: heap.read},
	}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(specFor(t, func(s *JobSpec) {
		s.DeadlineMS, s.Tenant, s.Priority = 50, "acme", 3
	}))
	if err != nil {
		t.Fatal(err)
	}
	committed := m1.GovernorHealth().Committed
	m1.Stop() // never started; the job stays queued in the journal

	time.Sleep(60 * time.Millisecond) // the deadline passes while "down"

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DeadlineUnixMS != st.DeadlineUnixMS {
		t.Fatalf("deadline moved across restart: %d -> %d", st.DeadlineUnixMS, st2.DeadlineUnixMS)
	}
	if h := m2.GovernorHealth(); h.Committed == 0 {
		t.Fatal("recovered job should re-reserve governor budget")
	}
	if st2.LastSeq <= st.LastSeq {
		t.Fatalf("requeue published nothing: last_seq %d -> %d", st.LastSeq, st2.LastSeq)
	}
	same := st2
	same.LastSeq = st.LastSeq
	if same != st {
		t.Fatalf("queued job changed across restart:\n  %+v\n->%+v", st, st2)
	}
	if h := m2.GovernorHealth(); h.Committed != committed {
		t.Fatalf("recovered job reserves %d bytes, Submit reserved %d", h.Committed, committed)
	}
	m2.Pulse()
	fin, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDeadline {
		t.Fatalf("recovered job = %s, want %s (anchor from first record)", fin.State, JobDeadline)
	}
	if h := m2.GovernorHealth(); h.Committed != 0 {
		t.Fatalf("expired job still holds %d reserved bytes", h.Committed)
	}
}

// TestEstimateCostCalibration runs a real flow and checks the cost
// model's flow-bytes term against the flow's own measured PeakBytes.
// The bound is loose — the estimate guesses the shot count — but a
// model drifting past 3x in either direction is lying to admission
// control. BENCH_flow.json records the measured ratios as the
// governor_calibration exhibit.
func TestEstimateCostCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("real flow run")
	}
	root := testLayoutRoot(t)
	for _, mutate := range []func(*JobSpec){
		nil,
		func(s *JobSpec) { s.GridN = 256; s.TileCore = 128; s.TileHalo = 32 },
	} {
		spec := specFor(t, mutate)
		l, err := spec.ResolveLayout(root)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateCost(spec, len(l.Rects))
		res, err := RunSpec(context.Background(), l, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakBytes <= 0 {
			t.Fatal("flow reported no PeakBytes")
		}
		ratio := float64(est.FlowBytes) / float64(res.PeakBytes)
		if ratio < 1.0/3 || ratio > 3 {
			t.Fatalf("grid %d: estimate %d vs actual %d (ratio %.2f) outside [0.33, 3]",
				spec.GridN, est.FlowBytes, res.PeakBytes, ratio)
		}
		t.Logf("grid %d: estimate %d actual %d ratio %.2f", spec.GridN, est.FlowBytes, res.PeakBytes, ratio)
	}
}

// TestMonitorTickerExpiresDeadline exercises the background monitor
// goroutine (MonitorEvery > 0): a queued job past its deadline must be
// expired by the ticker alone, with no manual Pulse.
func TestMonitorTickerExpiresDeadline(t *testing.T) {
	heap := &heapScript{}
	heap.set(1 << 20)
	m := governedManager(t, heap, func(cfg *ManagerConfig) {
		cfg.MaxActive = 1
		cfg.MonitorEvery = 10 * time.Millisecond
	})
	m.Start()

	// The blocker occupies the only slot; the deadlined job queues.
	blocker, err := m.Submit(specFor(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, blocker.ID, JobRunning)
	queued, err := m.Submit(specFor(t, func(s *JobSpec) { s.DeadlineMS = 30 }))
	if err != nil {
		t.Fatal(err)
	}

	st := waitTerminal(t, m, queued.ID)
	if st.State != JobDeadline {
		t.Fatalf("queued job ended %s (%s), want deadline_exceeded via the monitor ticker", st.State, st.Error)
	}
	if m.GovernorHealth().Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", m.GovernorHealth().Expired)
	}
}
