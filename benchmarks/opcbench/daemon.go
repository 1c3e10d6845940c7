package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfaopc/internal/server"
)

// jobTrace is one job as a client of the daemon sees it; times are
// offsets from the start of the repetition's drain.
type jobTrace struct {
	Index      int    `json:"index"`
	Heavy      bool   `json:"heavy"`
	ID         string `json:"id"`
	Post       time.Duration
	Accepted   time.Duration // 201 received
	FirstEvent time.Duration
	Running    time.Duration // state=running event received
	FirstTile  time.Duration
	Terminal   time.Duration // terminal state event received
	FetchStart time.Duration
	Fetched    time.Duration // shots body read
	Events     int
	State      string
	OffPrimary int // tile events whose path is not "primary"
	Reconnects int // event streams that ended before the terminal state
	Shots      []byte
	Err        string
}

// daemonRep is one repetition: a fresh cfaopcd, the whole job list
// drained, the daemon stopped and its resource use read.
type daemonRep struct {
	SetupS    float64
	SpawnMS   float64 // exec → /healthz ok
	WallS     float64 // makespan of the drain
	CPUS      float64 // daemon user+sys over its life
	PeakRSSMB float64
	Jobs      []jobTrace
}

func runDaemonRep(bin, dir string, p *daemonPlan) (*daemonRep, error) {
	t0 := time.Now()
	layouts := filepath.Join(dir, "layouts")
	data := filepath.Join(dir, "data")
	for _, d := range []string{layouts, data} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for name, l := range p.layouts {
		if err := writeLayout(filepath.Join(layouts, name), l); err != nil {
			return nil, err
		}
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-data", data, "-layout-root", layouts,
		"-max-active", fmt.Sprint(p.maxActive))
	cmd.Stdout, cmd.Stderr = logf, logf
	spawn := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
			return fmt.Errorf("cfaopcd did not stop on SIGTERM")
		}
	}
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	base, err := waitHealthy(ctx, filepath.Join(data, "addr"))
	if err != nil {
		return nil, err
	}
	rep := &daemonRep{SetupS: time.Since(t0).Seconds(), SpawnMS: ms(time.Since(spawn)), Jobs: make([]jobTrace, len(p.jobs))}

	// Closed loop: each client submits its next job only after it has
	// fetched the previous one's shots.
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.jobs) {
					return
				}
				rep.Jobs[i] = runJob(ctx, base, start, i, p.jobs[i])
			}
		}()
	}
	wg.Wait()
	rep.WallS = time.Since(start).Seconds()

	if err := stop(); err != nil {
		return nil, fmt.Errorf("cfaopcd exit: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.CPUS = rusageCPU(ru).Seconds()
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return rep, nil
}

// waitHealthy waits for the daemon to publish its address and answer
// /healthz.
func waitHealthy(ctx context.Context, addrPath string) (string, error) {
	for {
		if b, err := os.ReadFile(addrPath); err == nil && strings.HasSuffix(string(b), "\n") {
			base := "http://" + strings.TrimSpace(string(b))
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return base, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("cfaopcd not healthy: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// runJob is one client's turn: POST /jobs, follow /jobs/{id}/events to
// the terminal state, GET /jobs/{id}/shots. Every SSE line is
// timestamped as it arrives.
func runJob(ctx context.Context, base string, start time.Time, index int, job daemonJob) jobTrace {
	t := jobTrace{Index: index, Heavy: job.heavy, Post: time.Since(start)}
	fail := func(format string, a ...any) jobTrace {
		t.Err = fmt.Sprintf(format, a...)
		return t
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", strings.NewReader(job.spec))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	t.Accepted = time.Since(start)
	if resp.StatusCode != http.StatusCreated {
		return fail("submit: refused with status %d", resp.StatusCode)
	}
	if err != nil {
		return fail("submit: %v", err)
	}
	t.ID = st.ID

	// The stream may end without the terminal event (the daemon closes
	// a finished job's hub between the handler's last drain and its
	// end-of-stream check); the documented recovery is to reconnect
	// with Last-Event-ID, which replays what was missed.
	var lastSeq int64
	for t.Terminal == 0 {
		if t.Reconnects > 20 {
			return fail("events: no terminal state after %d reconnects", t.Reconnects)
		}
		req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/events", nil)
		if lastSeq > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(lastSeq))
			t.Reconnects++
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			return fail("events: %v", err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() && t.Terminal == 0 {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			at := time.Since(start)
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				resp.Body.Close()
				return fail("events: %v", err)
			}
			lastSeq = ev.Seq
			t.Events++
			if t.FirstEvent == 0 {
				t.FirstEvent = at
			}
			switch ev.Kind {
			case "tile":
				if t.FirstTile == 0 {
					t.FirstTile = at
				}
				if ev.Path != "" && ev.Path != "primary" {
					t.OffPrimary++
				}
			case "state":
				t.State = ev.State
				switch server.JobState(ev.State) {
				case server.JobRunning:
					t.Running = at
				case server.JobDone, server.JobFailed, server.JobCanceled, server.JobDeadline:
					t.Terminal = at
					t.Err = ev.Error
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil && t.Terminal == 0 {
			return fail("events: %v", err)
		}
	}
	if t.State != string(server.JobDone) {
		return fail("job ended %s: %s", t.State, t.Err)
	}

	t.FetchStart = time.Since(start)
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/shots", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return fail("shots: %v", err)
	}
	t.Shots, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t.Fetched = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("shots: status %d, %v", resp.StatusCode, err)
	}
	return t
}

// daemonSpans renders one job's client-side view as job → submit /
// queue / run / fetch spans.
func daemonSpans(j *jobTrace) []span {
	name := fmt.Sprintf("%s#%d", j.ID, j.Index)
	root := span{ID: 1, Name: "job", Job: name, StartMS: ms(j.Post), EndMS: ms(j.Fetched),
		Attrs: map[string]any{"heavy": j.Heavy, "events": j.Events, "first_tile_ms": ms(j.FirstTile - j.Post)}}
	child := func(id int, n string, a, b time.Duration) span {
		return span{ID: id, Parent: 1, Name: n, Job: name, StartMS: ms(a), EndMS: ms(b)}
	}
	return []span{root,
		child(2, "submit", j.Post, j.Accepted),
		child(3, "queue", j.Accepted, j.Running),
		child(4, "run", j.Running, j.Terminal),
		child(5, "fetch", j.FetchStart, j.Fetched),
	}
}
