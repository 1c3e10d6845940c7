package server

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Overload acceptance: the daemon under a tight memory budget with a
// mixed heavy/light burst must stay inside the budget, reject with
// typed deterministic errors, finish every admitted job with artifacts
// byte-identical to the CLI, and expire deadlined jobs into a terminal
// state that replays seq-exactly across a SIGKILL restart.
//
// TestOverloadMatrix is the CI entry point: OVERLOAD=burst|deadline|
// pressure picks one leg so the matrix runs them isolated under -race.

const (
	overloadBudget = 16 << 20 // fits one light + one heavy job, not a third

	// lightSpec ~3.8 MiB peak, heavySpec ~11 MiB peak (window 192,
	// priced by EstimateCost; the test simulates the ledger rather than
	// hardcoding byte counts).
	lightSpec = fastSpecJSON
	heavySpec = `{"layout":"t.glp","grid":256,"tile_core":128,"tile_halo":32,"iters":2,"kopt":5,"tile_workers":2}`
	// giantSpec prices past the whole budget: typed 400, never queued.
	giantSpec = `{"layout":"t.glp","grid":512,"tile_core":128,"tile_halo":64,"kopt":8,"tile_workers":4}`
)

func TestOverloadAcceptance(t *testing.T) {
	t.Run("burst", overloadBurst)
	t.Run("deadline_sigkill", overloadDeadline)
}

func TestOverloadMatrix(t *testing.T) {
	switch leg := os.Getenv("OVERLOAD"); leg {
	case "burst":
		overloadBurst(t)
	case "deadline":
		overloadDeadline(t)
	case "pressure":
		overloadPressure(t)
	default:
		t.Skip("set OVERLOAD=burst|deadline|pressure to run one overload leg")
	}
}

// overloadBurst submits a mixed burst against a budget sized for two
// jobs. The admit/reject split must match a test-side replay of the
// governor ledger exactly, admitted jobs must finish byte-identical to
// the CLI, the heap must stay bounded, and completion must hand the
// budget back.
func overloadBurst(t *testing.T) {
	m, ts := newGovernedService(t, func(cfg *ManagerConfig) {
		cfg.Governor = GovernorConfig{MemBudget: overloadBudget}
		cfg.MaxActive = 1
	}, false) // admissions decided before anything runs: ordering is pure

	burst := []string{lightSpec, heavySpec, lightSpec, lightSpec, heavySpec, lightSpec}

	// Test-side replay of the admission ledger: same costs, same budget,
	// same order -> the server must agree decision for decision.
	var committed int64
	var wantAdmit []bool
	for _, specJSON := range burst {
		spec, err := parseSpecString(t, specJSON)
		if err != nil {
			t.Fatal(err)
		}
		l, err := spec.ResolveLayout(m.layoutRoot) // priced exactly as Submit prices it
		if err != nil {
			t.Fatal(err)
		}
		cost := EstimateCost(spec, len(l.Rects))
		fits := committed+cost.PeakBytes <= overloadBudget
		if fits {
			committed += cost.PeakBytes
		}
		wantAdmit = append(wantAdmit, fits)
	}

	var admitted []JobStatus
	for i, specJSON := range burst {
		if wantAdmit[i] {
			st, resp := postJob(t, ts.URL, specJSON)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("burst[%d]: %s, ledger replay says admit", i, resp.Status)
			}
			admitted = append(admitted, st)
			continue
		}
		resp := postRaw(t, ts.URL, specJSON)
		body := decodeAPIError(t, resp, http.StatusTooManyRequests, "over_budget")
		if body.RetryAfterMS <= 0 {
			t.Fatalf("burst[%d]: reject without a retry hint", i)
		}
	}
	if len(admitted) != 2 {
		t.Fatalf("admitted %d jobs, want 2 (one light + one heavy)", len(admitted))
	}

	// A job bigger than the whole budget is a permanent typed 400.
	decodeAPIError(t, postRaw(t, ts.URL, giantSpec), http.StatusBadRequest, "job_exceeds_budget")

	// Run the admitted jobs for real, watching the live heap: it must
	// stay within a constant factor of the budget the whole way.
	baseline := liveHeapBytes()
	heapBound := baseline + 8*int64(overloadBudget)
	var heapMax int64
	jobWait := 120 * time.Second
	if raceEnabled {
		jobWait *= 4 // the heavy job alone can exceed 120s under the race detector
	}
	m.Start()
	for _, st := range admitted {
		deadline := time.Now().Add(jobWait)
		for {
			if h := liveHeapBytes(); h > heapMax {
				heapMax = h
			}
			cur := getStatus(t, ts.URL, st.ID)
			if cur.State.terminal() {
				if cur.State != JobDone {
					t.Fatalf("admitted job %s ended %s (%s)", st.ID, cur.State, cur.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s after %v", st.ID, cur.State, jobWait)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if heapMax > heapBound {
		t.Fatalf("heap peaked at %d bytes, bound %d (baseline %d + 8x budget)", heapMax, heapBound, baseline)
	}
	gh := m.GovernorHealth()
	if gh.Wedges != 0 {
		t.Fatalf("wedge watchdog fired during a healthy burst: %+v", gh)
	}
	if gh.Committed != 0 || gh.CommittedJobs != 0 {
		t.Fatalf("budget not returned after completion: %+v", gh)
	}

	// The freed budget readmits a job that was just rejected.
	if _, resp := postJob(t, ts.URL, heavySpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit after release: %s", resp.Status)
	}

	// Byte parity: the governed daemon's artifacts match direct CLI runs.
	cli := buildCLI(t)
	root := m.layoutRoot
	for i, st := range admitted {
		specJSON := []string{lightSpec, heavySpec}[i]
		specPath := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		outDir := t.TempDir()
		cmd := exec.Command(cli, "-job", specPath, "-layout-root", root, "-out", outDir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cfaopc -job: %v\n%s", err, out)
		}
		daemonMask := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/mask", http.StatusOK)
		cliMask, err := os.ReadFile(filepath.Join(outDir, "mask.pgm"))
		if err != nil {
			t.Fatal(err)
		}
		if string(daemonMask) != string(cliMask) {
			t.Fatalf("job %s: mask diverges from CLI under governance (%d vs %d bytes)",
				st.ID, len(daemonMask), len(cliMask))
		}
		daemonShots := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/shots", http.StatusOK)
		cliShots, err := os.ReadFile(filepath.Join(outDir, "shots.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(daemonShots) != string(cliShots) {
			t.Fatalf("job %s: shots diverge from CLI under governance", st.ID)
		}
	}
}

// overloadDeadline covers the deadline contract across a crash: a job
// whose deadline expires while the daemon is DOWN must surface as
// deadline_exceeded after restart, with its event journal replaying
// seq-exactly from the client's Last-Event-ID.
func overloadDeadline(t *testing.T) {
	root := testLayoutRoot(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	env := []string{daemonMonitorEnv + "=50ms"}

	// Job 1 occupies the single executor slot; job 2 queues behind it
	// with a 300ms deadline that will pass while the daemon is dead.
	d1 := startDaemon(t, dataDir, root, env...)
	blocker := `{"layout":"t.glp","grid":256,"tile_core":64,"iters":3,"kopt":3,"tenant":"alice"}`
	st1, resp := postJob(t, d1.url, blocker)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit blocker: %s", resp.Status)
	}
	deadlined := `{"layout":"t.glp","grid":128,"tile_core":64,"iters":2,"kopt":3,"tenant":"bob","deadline_ms":300}`
	st2, resp := postJob(t, d1.url, deadlined)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit deadlined: %s", resp.Status)
	}
	if st2.DeadlineUnixMS == 0 {
		t.Fatal("status does not expose the anchored deadline")
	}

	// Remember the last seq a client saw before the crash.
	stream := openStream(t, d1.url, st2.ID, 0)
	ev, ok := stream.next()
	if !ok || ev.State != string(JobQueued) {
		t.Fatalf("first event = %+v, want queued", ev)
	}
	lastSeq := ev.Seq
	d1.kill()
	stream.close()

	// The deadline passes with no daemon alive to observe it.
	time.Sleep(400 * time.Millisecond)

	// Restart: recovery re-anchors the deadline at the job's FIRST
	// journaled record (not the restart), so the monitor expires it.
	d2 := startDaemon(t, dataDir, root, env...)
	st := waitState(t, d2.url, st2.ID, JobDeadline)
	if st.DeadlineUnixMS != st2.DeadlineUnixMS {
		t.Fatalf("deadline anchor moved across restart: %d -> %d", st2.DeadlineUnixMS, st.DeadlineUnixMS)
	}

	// Seq-exact replay: reconnecting with the pre-crash Last-Event-ID
	// yields the missed events in order, ending deadline_exceeded.
	resumed := openStream(t, d2.url, st2.ID, lastSeq)
	want := lastSeq + 1
	for {
		ev, ok := resumed.next()
		if !ok {
			t.Fatal("resumed stream ended before the terminal event")
		}
		if ev.Seq != want {
			t.Fatalf("replay seq %d, want %d", ev.Seq, want)
		}
		want++
		if ev.Kind == "state" && JobState(ev.State).terminal() {
			if ev.State != string(JobDeadline) {
				t.Fatalf("terminal state %s, want deadline_exceeded", ev.State)
			}
			break
		}
	}
	resumed.close()

	// The blocker is unaffected: it resumes from its checkpoint and
	// finishes; its artifacts still exist.
	waitState(t, d2.url, st1.ID, JobDone)
	httpGetBytes(t, d2.url+"/jobs/"+st1.ID+"/mask", http.StatusOK)

	// A third life replays the full deadline history identically.
	d2.kill()
	d3 := startDaemon(t, dataDir, root, env...)
	evs := streamEvents(t, d3.url, st2.ID, 0)
	if len(evs) == 0 {
		t.Fatal("deadline history vanished after the final restart")
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq %d at position %d after final restart", ev.Seq, i)
		}
	}
	if last := evs[len(evs)-1]; last.State != string(JobDeadline) {
		t.Fatalf("final event %+v, want deadline_exceeded", last)
	}
}

// overloadPressure walks the degradation ladder over the HTTP surface:
// scripted heap readings must move /healthz through shrink -> pause ->
// shed and back, pausing admissions at the top and reopening on
// recovery.
func overloadPressure(t *testing.T) {
	heap := &heapScript{}
	heap.set(1 << 20)
	m, ts := newGovernedService(t, func(cfg *ManagerConfig) {
		cfg.MaxActive = 2
		cfg.Governor = GovernorConfig{
			MemBudget: 64 << 20,
			HeapHigh:  48 << 20,
			HeapLow:   32 << 20,
			ReadHeap:  heap.read,
		}
	}, false)
	m.runSpec = blockingRun // jobs park on their context; no real compute
	m.Start()

	// A light job survives the whole walk; the heavy one prices over its
	// fair share of the budget (64 MiB / 2 slots) and is the shed victim.
	st, resp := postJob(t, ts.URL, lightSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit light: %s", resp.Status)
	}
	heavy, resp := postJob(t, ts.URL, giantSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit heavy: %s", resp.Status)
	}
	waitJobState(t, m, st.ID, JobRunning)
	waitJobState(t, m, heavy.ID, JobRunning)

	govLevel := func() string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Governor GovernorHealth `json:"governor"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Governor.Level
	}

	walk := []struct {
		heap int64
		want string
	}{
		{1 << 20, "normal"},
		{33 << 20, "shrink"},
		{49 << 20, "pause"},
		{49 << 20, "shed"},
		{33 << 20, "shrink"},
		{1 << 20, "normal"},
	}
	for _, step := range walk {
		heap.set(step.heap)
		m.Pulse()
		if got := govLevel(); got != step.want {
			t.Fatalf("heap %d: /healthz level %q, want %q", step.heap, got, step.want)
		}
		if step.want == "pause" || step.want == "shed" {
			resp := postRaw(t, ts.URL, lightSpec)
			decodeAPIError(t, resp, http.StatusTooManyRequests, "admission_paused")
		}
		if step.want == "shed" {
			// The over-share job is canceled with a typed message; the
			// light job rides out the pressure.
			hs := waitTerminal(t, m, heavy.ID)
			if hs.State != JobFailed || !strings.Contains(hs.Error, "shed:") {
				t.Fatalf("shed victim ended %s (%s)", hs.State, hs.Error)
			}
			if cur := getStatus(t, ts.URL, st.ID); cur.State != JobRunning {
				t.Fatalf("light job was %s during shed, want running", cur.State)
			}
		}
	}
	// Recovery reopens admissions.
	if _, resp := postJob(t, ts.URL, lightSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("admission after recovery: %s", resp.Status)
	}
	gh := m.GovernorHealth()
	if gh.Shrinks < 1 || gh.Pauses < 1 || gh.Sheds < 1 {
		t.Fatalf("ladder counters missed a rung: %+v", gh)
	}
}
