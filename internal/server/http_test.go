package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/flow"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/faultfs"
)

// testLayoutRoot writes the small two-rect layout the API tests
// optimize and returns its directory.
func testLayoutRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	l := &layout.Layout{
		Name:   "svc",
		TileNM: 1024,
		Rects: []layout.Rect{
			{X: 180, Y: 150, W: 72, H: 260},
			{X: 640, Y: 600, W: 80, H: 240},
		},
	}
	f, err := os.Create(filepath.Join(root, "t.glp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return root
}

// fastSpecJSON is a job small enough for API tests: 4 windows of
// 128 px, two optimizer iterations each.
const fastSpecJSON = `{"layout":"t.glp","grid":128,"tile_core":64,"iters":2,"kopt":3,"tile_workers":2}`

func newTestService(t *testing.T, root string, maxActive, queueCap int, start bool) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(ManagerConfig{
		DataDir:    filepath.Join(t.TempDir(), "data"),
		LayoutRoot: root,
		MaxActive:  maxActive,
		QueueCap:   queueCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		m.Start()
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Stop()
	})
	return m, ts
}

func postJob(t *testing.T, base, specJSON string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// readSSE consumes an SSE body until the job's terminal state event
// (or EOF) and returns every received event in order.
func readSSE(t *testing.T, body io.Reader) []JobEvent {
	t.Helper()
	var evs []JobEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func streamEvents(t *testing.T, base, id string, lastEventID int64) []JobEvent {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %s", resp.Status)
	}
	return readSSE(t, resp.Body)
}

func TestHTTPSubmitValidation(t *testing.T) {
	root := testLayoutRoot(t)
	_, ts := newTestService(t, root, 1, 2, false)

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"garbage", `{{{`, http.StatusBadRequest},
		{"unknown field", `{"case":1,"bogus":true}`, http.StatusBadRequest},
		{"traversal layout", `{"layout":"../../etc/passwd.glp"}`, http.StatusBadRequest},
		{"missing layout file", `{"layout":"absent.glp"}`, http.StatusBadRequest},
		{"bad geometry", `{"case":1,"grid":64,"tile_core":4,"tile_halo":4}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postJob(t, ts.URL, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
		})
	}
}

// TestHTTPSubmitRefusesSubWavelengthWindow: a window legal in pixels but
// narrower than λ/NA at the layout's pitch is a 400 carrying the reason,
// before anything is journaled — it used to be accepted and fail only
// when dispatched, inside the kernel build.
func TestHTTPSubmitRefusesSubWavelengthWindow(t *testing.T) {
	m, ts := newTestService(t, testLayoutRoot(t), 1, 2, false)
	jobsDir := filepath.Join(m.dataDir, "jobs")
	before, err := os.ReadDir(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"case":10,"grid":2048,"tile_core":64,"tile_halo":32}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || apiErr.Reason != "bad_spec" ||
		!strings.Contains(apiErr.Error, "128 nm") || !strings.Contains(apiErr.Error, "λ/NA = 143.0 nm") {
		t.Fatalf("status %d, error %+v; want a 400 bad_spec naming the 128 nm window and the λ/NA floor", resp.StatusCode, apiErr)
	}
	after, err := os.ReadDir(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) || len(m.List()) != 0 {
		t.Fatalf("the refused spec left a trace: %d → %d job directories, %d jobs listed", len(before), len(after), len(m.List()))
	}
	if _, err := os.Stat(m.jobDir("job-0001")); !os.IsNotExist(err) {
		t.Fatalf("the refused spec created a job directory: %v", err)
	}
	// One pixel-pitch step above the floor is admitted.
	if _, resp := postJob(t, ts.URL, `{"case":10,"grid":2048,"tile_core":80,"tile_halo":32,"method":"circlerule"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("144 nm window: status %d, want 201", resp.StatusCode)
	}
}

func TestHTTPQueueFull(t *testing.T) {
	root := testLayoutRoot(t)
	// Executor never started: nothing drains, so the cap must hold.
	_, ts := newTestService(t, root, 1, 2, false)
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts.URL, fastSpecJSON); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
	}
	_, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	// A canceled job frees its slot.
	httpPost(t, ts.URL+"/jobs/job-0000/cancel")
	if _, resp := postJob(t, ts.URL, fastSpecJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit after cancel: %s", resp.Status)
	}
}

func httpPost(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestHTTPCancelWhileQueued(t *testing.T) {
	root := testLayoutRoot(t)
	_, ts := newTestService(t, root, 1, 4, false)
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated || st.State != JobQueued {
		t.Fatalf("submit: %s, state %s", resp.Status, st.State)
	}
	if resp := httpPost(t, ts.URL+"/jobs/"+st.ID+"/cancel"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	got := getStatus(t, ts.URL, st.ID)
	if got.State != JobCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	// Cancel is idempotent, and the event stream terminates cleanly.
	if resp := httpPost(t, ts.URL+"/jobs/"+st.ID+"/cancel"); resp.StatusCode != http.StatusOK {
		t.Fatalf("second cancel: %s", resp.Status)
	}
	evs := streamEvents(t, ts.URL, st.ID, 0)
	if len(evs) != 2 || evs[0].State != "queued" || evs[1].State != "canceled" {
		t.Fatalf("event stream %+v, want queued then canceled", evs)
	}
	// Cancel of an unknown job 404s.
	if resp := httpPost(t, ts.URL+"/jobs/nope/cancel"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %s", resp.Status)
	}
}

// TestHTTPJobLifecycle runs one real job end to end over the API and
// checks the stream's shape and the artifacts' integrity.
func TestHTTPJobLifecycle(t *testing.T) {
	root := testLayoutRoot(t)
	_, ts := newTestService(t, root, 1, 4, true)
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}

	// The SSE stream is the synchronization: it ends at the terminal
	// state event.
	evs := streamEvents(t, ts.URL, st.ID, 0)
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	if evs[0].Kind != "state" || evs[0].State != "queued" || evs[0].Seq != 1 {
		t.Fatalf("first event %+v, want state=queued seq=1", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != "state" || last.State != "done" {
		t.Fatalf("last event %+v, want state=done", last)
	}
	var tiles, beats, states int
	sawRunning := false
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq %d at position %d: stream not contiguous", ev.Seq, i)
		}
		switch ev.Kind {
		case "state":
			states++
			if ev.State == "running" {
				sawRunning = true
			}
		case "tile":
			tiles++
		case "beat":
			beats++
		}
	}
	if !sawRunning {
		t.Fatal("no running state event")
	}
	if tiles != 4 {
		t.Fatalf("%d tile events, want 4", tiles)
	}
	if beats == 0 {
		t.Fatal("no heartbeat events from the optimizer")
	}
	// The mask is an after-the-run artifact: nothing announces it, so
	// states, tiles and beats account for every seq.
	if states+tiles+beats != len(evs) {
		t.Fatalf("%d states + %d tiles + %d beats of %d events: the stream carries another kind", states, tiles, beats, len(evs))
	}

	// Reconnect mid-history: replay must start exactly after the seq
	// we claim to have seen.
	cut := int64(len(evs) / 2)
	tail := streamEvents(t, ts.URL, st.ID, cut)
	if len(tail) == 0 || tail[0].Seq != cut+1 {
		t.Fatalf("Last-Event-ID %d replay starts at %d, want %d", cut, tail[0].Seq, cut+1)
	}
	if int64(len(tail)) != int64(len(evs))-cut {
		t.Fatalf("replay returned %d events, want %d", len(tail), int64(len(evs))-cut)
	}

	// Artifacts.
	final := getStatus(t, ts.URL, st.ID)
	if final.State != JobDone || final.Shots == 0 {
		t.Fatalf("final status %+v", final)
	}
	mask := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/mask", http.StatusOK)
	wantHeader := fmt.Sprintf("P5\n%d %d\n255\n", 128, 128)
	if !bytes.HasPrefix(mask, []byte(wantHeader)) || len(mask) != len(wantHeader)+128*128 {
		t.Fatalf("mask: %d bytes, header %q", len(mask), mask[:min(16, len(mask))])
	}
	shots := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/shots", http.StatusOK)
	if !bytes.HasPrefix(shots, []byte("x_nm,y_nm,r_nm")) {
		t.Fatalf("shots CSV starts %q", shots[:min(32, len(shots))])
	}

	// The list endpoint knows the job.
	resp2, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list %+v", list)
	}
}

func httpGetBytes(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d, want %d", url, resp.StatusCode, wantCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPMaskConflictUntilDone: the mask, like the shot list, is
// written after the run, so both endpoints answer 409 with the state
// while the job is queued or running and the file's bytes once done.
func TestHTTPMaskConflictUntilDone(t *testing.T) {
	root := testLayoutRoot(t)
	m, ts := newTestService(t, root, 1, 4, false)
	started, release := make(chan struct{}), make(chan struct{})
	m.runSpec = func(ctx context.Context, l *layout.Layout, spec *JobSpec, o RunOpts) (*flow.Result, error) {
		close(started)
		<-release
		return RunSpec(ctx, l, spec, o)
	}
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	conflict := func(state string) {
		t.Helper()
		for _, artifact := range []string{"/mask", "/shots"} {
			body := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+artifact, http.StatusConflict)
			if !strings.Contains(string(body), "is "+state) {
				t.Fatalf("%s while %s: 409 body %q does not name the state", artifact, state, body)
			}
		}
	}
	conflict("queued")
	m.Start()
	<-started
	conflict("running")
	close(release)
	waitState(t, ts.URL, st.ID, JobDone)
	direct, err := os.ReadFile(m.MaskPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if served := httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/mask", http.StatusOK); !bytes.Equal(served, direct) {
		t.Fatalf("served mask (%d bytes) != the file (%d bytes)", len(served), len(direct))
	}
	httpGetBytes(t, ts.URL+"/jobs/"+st.ID+"/shots", http.StatusOK)
}

// TestHTTPErrorsAreAPIErrors: every error the job routes answer is the
// apiError JSON body with a machine-readable reason — an unknown ID on
// each route, and the artifacts of a job that is not done yet.
func TestHTTPErrorsAreAPIErrors(t *testing.T) {
	root := testLayoutRoot(t)
	_, ts := newTestService(t, root, 1, 4, false)
	queued, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	for _, tc := range []struct {
		method, path string
		code         int
		reason       string
	}{
		{"GET", "/jobs/nope", http.StatusNotFound, "not_found"},
		{"POST", "/jobs/nope/cancel", http.StatusNotFound, "not_found"},
		{"GET", "/jobs/nope/events", http.StatusNotFound, "not_found"},
		{"GET", "/jobs/nope/mask", http.StatusNotFound, "not_found"},
		{"GET", "/jobs/nope/shots", http.StatusNotFound, "not_found"},
		{"GET", "/jobs/" + queued.ID + "/mask", http.StatusConflict, "not_ready"},
		{"GET", "/jobs/" + queued.ID + "/shots", http.StatusConflict, "not_ready"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body apiError
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || resp.Header.Get("Content-Type") != "application/json" ||
			decodeErr != nil || body.Reason != tc.reason || body.Error == "" {
			t.Errorf("%s %s: %d %q, body %+v (%v); want %d application/json with reason %q",
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), body, decodeErr, tc.code, tc.reason)
		}
	}
}

func waitState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestManagerRestartResumesQueued closes a manager holding queued jobs
// and reopens the same data directory: both jobs must come back
// queued, run, and produce byte-identical artifacts to a direct
// single-process RunSpec of the same specs.
func TestManagerRestartResumesQueued(t *testing.T) {
	root := testLayoutRoot(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	m1, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(strings.NewReader(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, _ := ParseSpec(strings.NewReader(fastSpecJSON))
	spec2.Method = "circlerule"
	spec2.Normalize()
	st2, err := m1.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	m1.Stop() // never started: jobs are still queued

	m2, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	for _, id := range []string{st1.ID, st2.ID} {
		got, err := m2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != JobQueued {
			t.Fatalf("job %s recovered as %s, want queued", id, got.State)
		}
	}
	m2.Start()
	ts := httptest.NewServer(NewHandler(m2))
	defer ts.Close()
	waitState(t, ts.URL, st1.ID, JobDone)
	waitState(t, ts.URL, st2.ID, JobDone)

	// Byte parity with a direct run of each spec.
	for i, s := range []*JobSpec{spec, spec2} {
		id := []string{st1.ID, st2.ID}[i]
		dir := t.TempDir()
		l, err := s.ResolveLayout(root)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSpec(context.Background(), l, s, RunOpts{
			MaskPath:  filepath.Join(dir, "mask.pgm"),
			ShotsPath: filepath.Join(dir, "shots.csv"),
		})
		if err != nil {
			t.Fatal(err)
		}
		compareFiles(t, m2.MaskPath(id), filepath.Join(dir, "mask.pgm"))
		compareFiles(t, m2.ShotsPath(id), filepath.Join(dir, "shots.csv"))
	}
}

// TestForeignCheckpointJobRestarts: a job whose flow.ckpt this build
// cannot resume — its header hashes another config, as every journal's
// does across a numerics bump — is a daemon upgraded under an in-flight
// job. The journal goes aside as flow.ckpt.stale, byte for byte, and the
// job runs again from tile 0 to done with the shots a fresh run writes.
// When that rename fails, the job fails, as on any storage error.
func TestForeignCheckpointJobRestarts(t *testing.T) {
	root := testLayoutRoot(t)
	spec, err := ParseSpec(strings.NewReader(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "shots.csv")
	l, err := spec.ResolveLayout(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpec(context.Background(), l, spec, RunOpts{ShotsPath: fresh}); err != nil {
		t.Fatal(err)
	}
	for _, renameFails := range []bool{false, true} {
		var fsys iox.FS
		if renameFails {
			fsys = faultfs.NewFaultFS(nil, faultfs.Plan{FailRenameAt: 1, PathSubstr: "flow.ckpt"})
		}
		m, err := NewManager(ManagerConfig{DataDir: filepath.Join(t.TempDir(), "data"), LayoutRoot: root, QueueCap: 4, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		st, err := m.Submit(spec) // not started: the job waits in the queue
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(m.jobDir(st.ID), "flow.ckpt")
		j, _, err := checkpoint.Open(ckpt, []byte("cfaopc-flow-v4 0000000000000000"))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append([]byte("a tile of other arithmetic")); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		foreign, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		if renameFails {
			if st := waitJobState(t, m, st.ID, JobFailed); !strings.Contains(st.Error, "rename") {
				t.Errorf("failed with %q, want the rename's error", st.Error)
			}
			compareBytes(t, ckpt, foreign)
			continue
		}
		waitJobState(t, m, st.ID, JobDone)
		compareFiles(t, m.ShotsPath(st.ID), fresh)
		compareBytes(t, ckpt+".stale", foreign)
	}
}

func compareBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes (%v), want the %d the foreign journal held", path, len(got), err, len(want))
	}
}

func compareFiles(t *testing.T, a, b string) {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("%s (%d bytes) differs from %s (%d bytes)", a, len(ab), b, len(bb))
	}
}

// openParentDaemon copies a data directory the parent commit's cfaopcd
// wrote (jobs.log plus each job's event journal, checkpoint and
// artifacts; this daemon reads that jobs.log and never writes one) into a scratch directory and starts a Manager and its
// handler on it.
func openParentDaemon(t *testing.T, fixture string) (*Manager, string) {
	t.Helper()
	dataDir := filepath.Join(t.TempDir(), "data")
	err := filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(fixture, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dataDir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dataDir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{DataDir: dataDir, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Stop()
	})
	return m, ts.URL
}

// TestParentDaemonJobReplays holds the daemon to finished job
// directories parent commits' binaries wrote. The first is from when the
// flow still streamed mask bands and journaled a band event per tile
// row: opened on that directory, a Manager replays all 75 events byte
// for byte (the 8 band records with their row/rows included) and serves
// the same mask; the same spec submitted afresh writes the same mask.pgm
// and shots.csv from a 67-event stream that carries no band. The second
// is a CircleOpt job whose spec set partial_every, from when the flow
// journaled mid-tile snapshots at that interval: the key is still part
// of the spec's canonical bytes, so the event journal's header matches
// and the job replays as done; submitted afresh, the key is ignored and
// the shots are the same.
// TestParentQueuedDoseoptJobFails: doseopt was a method until it was
// removed after measurement. A new submission naming it is a 400 before
// anything is journaled, and the refusal lists the methods that remain.
// A daemon the parent's cfaopcd left behind — SIGKILLed with job-0000
// (CircleOpt) running and job-0001 (doseopt) queued behind it — reopens
// with both requeued: the CircleOpt job runs to done, the doseopt job ends
// failed on the same sentence, and nothing panics.
func TestParentQueuedDoseoptJobFails(t *testing.T) {
	const have = `unknown method "doseopt" (have circlerule | circleopt | greedy | develset | neuralilt | multiilt)`
	m, base := openParentDaemon(t, "../../testdata/parent/daemon_queued_doseopt")
	if n := len(m.List()); n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	if st := waitState(t, base, "job-0000", JobDone); st.Shots == 0 {
		t.Errorf("job-0000 finished with no shots: %+v", st)
	}
	if st := waitState(t, base, "job-0001", JobFailed); !strings.Contains(st.Error, have) {
		t.Errorf("job-0001 failed with %q, want %q", st.Error, have)
	}

	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(`{"case":1,"method":"doseopt"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if apiErr := decodeAPIError(t, resp, http.StatusBadRequest, "bad_spec"); !strings.Contains(apiErr.Error, have) {
		t.Errorf("refusal %q, want %q", apiErr.Error, have)
	}
	if n := len(m.List()); n != 2 {
		t.Errorf("a refused spec was journaled: %d jobs", n)
	}
}

func TestParentDaemonJobReplays(t *testing.T) {
	const fixture = "../../testdata/parent/daemon_job"
	const old = "jobs/job-0000"
	m, base := openParentDaemon(t, fixture)

	wantSSE, err := os.ReadFile(filepath.Join(fixture, "events.sse"))
	if err != nil {
		t.Fatal(err)
	}
	gotSSE := httpGetBytes(t, base+"/jobs/job-0000/events", http.StatusOK)
	if !bytes.Equal(gotSSE, wantSSE) || bytes.Count(gotSSE, []byte(`"kind":"band"`)) != 8 {
		t.Fatalf("replayed event stream (%d bytes) differs from the one the parent daemon served (%d bytes)", len(gotSSE), len(wantSSE))
	}
	wantMask, err := os.ReadFile(filepath.Join(fixture, old, "mask.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	if got := httpGetBytes(t, base+"/jobs/job-0000/mask", http.StatusOK); !bytes.Equal(got, wantMask) {
		t.Fatal("served mask differs from the parent's file")
	}

	st, resp := postJob(t, base, `{"case":4,"method":"circlerule","grid":512,"tile_core":64,"tile_halo":16}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	evs := streamEvents(t, base, st.ID, 0)
	for _, ev := range evs {
		if ev.Kind != "state" && ev.Kind != "tile" {
			t.Fatalf("fresh job published a %q event: %+v", ev.Kind, ev)
		}
	}
	if len(evs) != 67 {
		t.Fatalf("fresh job published %d events, want 67 (3 states + 64 tiles)", len(evs))
	}
	compareFiles(t, m.MaskPath(st.ID), filepath.Join(fixture, old, "mask.pgm"))
	compareFiles(t, m.ShotsPath(st.ID), filepath.Join(fixture, old, "shots.csv"))

	const partial = "../../testdata/parent/daemon_partial_job"
	m, base = openParentDaemon(t, partial)
	if st := getStatus(t, base, "job-0000"); st.State != JobDone {
		t.Fatalf("parent's partial_every job reopened as %s (err %q), want done", st.State, st.Error)
	}
	if wantSSE, err = os.ReadFile(filepath.Join(partial, "events.sse")); err != nil {
		t.Fatal(err)
	}
	if got := httpGetBytes(t, base+"/jobs/job-0000/events", http.StatusOK); !bytes.Equal(got, wantSSE) {
		t.Fatalf("replayed event stream (%d bytes) differs from the one the parent daemon served (%d bytes)", len(got), len(wantSSE))
	}
	for route, file := range map[string]string{"mask": "mask.pgm", "shots": "shots.csv"} {
		want, err := os.ReadFile(filepath.Join(partial, old, file))
		if err != nil {
			t.Fatal(err)
		}
		if got := httpGetBytes(t, base+"/jobs/job-0000/"+route, http.StatusOK); !bytes.Equal(got, want) {
			t.Fatalf("served %s differs from the parent's file", file)
		}
	}
	st, resp = postJob(t, base, `{"case":4,"grid":256,"tile_core":64,"partial_every":5,"iters":6}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitState(t, base, st.ID, JobDone)
	compareFiles(t, m.ShotsPath(st.ID), filepath.Join(partial, old, "shots.csv"))
	compareFiles(t, m.MaskPath(st.ID), filepath.Join(partial, old, "mask.pgm"))
}
