package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/iox"
	"cfaopc/internal/testkit/faultfs"
)

// storageSpecJSON is the daemon job the storage harnesses run:
// tile_workers 1 so the recorder sees a deterministic global write
// order, and small enough that dozens of full runs cost seconds.
const storageSpecJSON = `{"layout":"t.glp","grid":128,"tile_core":64,"iters":2,"kopt":3,"tile_workers":1}`

// fixedNow pins the admission time the queued event carries, so event
// journal lengths are identical between a reference run and a fault run
// — which is what lets a test place a write budget between two specific
// records.
func fixedNow() time.Time { return time.Unix(1_700_000_000, 0).UTC() }

func storageManager(t *testing.T, dataDir, layoutRoot string, fsys iox.FS) *Manager {
	t.Helper()
	m, err := NewManager(ManagerConfig{
		DataDir:    dataDir,
		LayoutRoot: layoutRoot,
		FS:         fsys,
		Now:        fixedNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitTerminal blocks until the job's stream delivers a terminal state
// event or the hub shuts the stream (an event-journal death ends a
// stream without one), then returns the job's status.
func waitTerminal(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	sub, err := m.Subscribe(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(id, sub)
	deadline := time.Now().Add(60 * time.Second)
	for {
		evs, _ := sub.drain()
		for _, ev := range evs {
			if ev.Kind == "state" && JobState(ev.State).terminal() {
				st, err := m.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		}
		if sub.isShut() {
			st, err := m.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if !st.State.terminal() {
				t.Fatalf("stream ended but job %s is %s", id, st.State)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state", id)
		}
		select {
		case <-sub.wait():
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// replaySeqs subscribes from zero, asserts the replayed stream is
// seq-contiguous from 1, and returns it.
func replaySeqs(t *testing.T, m *Manager, id string) []JobEvent {
	t.Helper()
	sub, err := m.Subscribe(id, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(id, sub)
	evs, _ := sub.drain()
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay position %d has seq %d: stream not contiguous", i, ev.Seq)
		}
	}
	return evs
}

// TestJobsLogENOSPCFailsCleanly: running out of disk on a job's record —
// its events.log, which replaced the jobs.log the test is named for —
// never corrupts the daemon. A submit whose queued event cannot be
// journaled is rejected whole: no ghost job, and no directory a later ID
// collides with. A job whose journal dies as it starts running fails
// cleanly and — because its journal still ends at the queued event —
// resumes to completion on a healthy restart.
func TestJobsLogENOSPCFailsCleanly(t *testing.T) {
	lroot := testLayoutRoot(t)
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}

	// Size the journal header and the queued event on a clean run.
	refDir := filepath.Join(t.TempDir(), "data")
	mref := storageManager(t, refDir, lroot, nil)
	if _, err := mref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	afterQueued := mref.StorageHealth().EventLogBytes
	mref.Stop()
	h, err := newHubFS(nil, filepath.Join(t.TempDir(), "events.log"), "job-0000", spec)
	if err != nil {
		t.Fatal(err)
	}
	hdrSize := h.journalSize()
	h.close()

	t.Run("submit-rejected", func(t *testing.T) {
		dataDir := filepath.Join(t.TempDir(), "data")
		ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: hdrSize + 4, PathSubstr: "events.log"})
		m := storageManager(t, dataDir, lroot, ff)
		if _, err := m.Submit(spec); err == nil {
			t.Fatal("submit succeeded with an unjournalable queued event")
		}
		if n := len(m.List()); n != 0 {
			t.Fatalf("%d ghost jobs after a rejected submit", n)
		}
		if d := m.QueueDepth(); d != 0 {
			t.Fatalf("queue depth %d after a rejected submit", d)
		}
		// The rejected job's directory went with it.
		if _, err := os.Stat(filepath.Join(dataDir, "jobs", "job-0000")); !iox.IsNotExist(err) {
			t.Fatalf("job directory after rejected submit: %v", err)
		}
		m.Stop()
		// A healthy restart resurrects nothing, and the next submission
		// is admitted.
		m2 := storageManager(t, dataDir, lroot, nil)
		defer m2.Stop()
		if n := len(m2.List()); n != 0 {
			t.Fatalf("restart resurrected %d jobs from a rejected submit", n)
		}
		if _, err := m2.Submit(spec); err != nil {
			t.Fatalf("submit after a rejected one: %v", err)
		}
	})

	t.Run("running-record-fails-job", func(t *testing.T) {
		dataDir := filepath.Join(t.TempDir(), "data")
		ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: afterQueued + 4, PathSubstr: "events.log"})
		m := storageManager(t, dataDir, lroot, ff)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		fin := waitTerminal(t, m, st.ID)
		if fin.State != JobFailed || !strings.Contains(fin.Error, "event journal") {
			t.Fatalf("job ended %s (%q), want failed with an event journal error", fin.State, fin.Error)
		}
		if h := m.StorageHealth(); h.EventErrs == 0 {
			t.Fatalf("degradation not surfaced: %+v", h)
		}
		m.Stop()
		// Healthy restart: the journal still ends at the queued event (the
		// torn running event is dropped), so the job requeues and runs to
		// done.
		m2 := storageManager(t, dataDir, lroot, nil)
		defer m2.Stop()
		st2, err := m2.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st2.State != JobQueued {
			t.Fatalf("restart recovered job as %s, want queued", st2.State)
		}
		m2.Start()
		if fin2 := waitTerminal(t, m2, st.ID); fin2.State != JobDone {
			t.Fatalf("resumed job ended %s (%q), want done", fin2.State, fin2.Error)
		}
		replaySeqs(t, m2, st.ID)
	})
}

// TestEventJournalENOSPCFailsJobCleanly: mid-run ENOSPC on the per-job
// event journal ends the job as a clean failure — no subscriber ever
// sees an event that is not on disk, and the live stream terminates
// instead of wedging. The failure itself could not be journaled, so the
// journal still says running: a healthy restart drops the torn tail,
// requeues the job with seqs continuing after the durable ones, and
// resumes it to done from its checkpoint.
func TestEventJournalENOSPCFailsJobCleanly(t *testing.T) {
	lroot := testLayoutRoot(t)
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}

	// Reference run sizes the full event journal.
	refDir := filepath.Join(t.TempDir(), "data")
	mref := storageManager(t, refDir, lroot, nil)
	stRef, err := mref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	mref.Start()
	if fin := waitTerminal(t, mref, stRef.ID); fin.State != JobDone {
		t.Fatalf("reference job ended %s (%q)", fin.State, fin.Error)
	}
	mref.Stop()
	refShots, err := os.ReadFile(mref.ShotsPath(stRef.ID))
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(mref.eventPath(stRef.ID))
	if err != nil {
		t.Fatal(err)
	}
	budget := fi.Size() / 2 // lands mid-run, past queued+running, before done

	dataDir := filepath.Join(t.TempDir(), "data")
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: budget, PathSubstr: "events.log"})
	m := storageManager(t, dataDir, lroot, ff)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := m.Subscribe(st.ID, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	fin := waitTerminal(t, m, st.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "event journal") {
		t.Fatalf("job ended %s (%q), want failed with an event journal error", fin.State, fin.Error)
	}
	// The live subscriber's stream was shut; everything it saw is
	// contiguous and none of it is a terminal event (which could not be
	// made durable).
	deadline := time.Now().Add(10 * time.Second)
	for !live.isShut() {
		if time.Now().After(deadline) {
			t.Fatal("live stream never shut after the event journal died")
		}
		time.Sleep(10 * time.Millisecond)
	}
	evs, _ := live.drain()
	m.Unsubscribe(st.ID, live)
	if len(evs) == 0 {
		t.Fatal("live subscriber saw nothing; fault fired too early")
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("live stream position %d has seq %d", i, ev.Seq)
		}
		if ev.Kind == "state" && JobState(ev.State).terminal() {
			t.Fatal("a terminal event was visible despite the dead journal")
		}
	}
	if h := m.StorageHealth(); h.EventErrs == 0 {
		t.Fatalf("lost terminal event not counted: %+v", h)
	}
	if ff.Stats().Injected == 0 {
		t.Fatal("fault plan never fired")
	}
	m.Stop()

	// Healthy restart over the same data dir.
	m2 := storageManager(t, dataDir, lroot, nil)
	defer m2.Stop()
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobQueued {
		t.Fatalf("restart recovered job as %s, want queued", st2.State)
	}
	tail := st2.LastSeq - 1 // the durable events before the requeue's queued one
	m2.Start()
	if fin := waitTerminal(t, m2, st.ID); fin.State != JobDone {
		t.Fatalf("resumed job ended %s (%q), want done", fin.State, fin.Error)
	}
	evs2 := replaySeqs(t, m2, st.ID)
	if tail < int64(len(evs)) {
		t.Fatalf("durable tail %d is shorter than the %d events a live client saw", tail, len(evs))
	}
	if rq := evs2[tail]; rq.Kind != "state" || rq.State != string(JobQueued) {
		t.Fatalf("seq %d after the durable tail is %+v, want the requeue", rq.Seq, rq)
	}
	if last := evs2[len(evs2)-1]; last.Kind != "state" || last.State != string(JobDone) {
		t.Fatalf("replay does not end in the done event: %+v", last)
	}
	// Every seq the live subscriber observed replays with identical
	// content — the fsync-before-fan-out guarantee.
	for i, ev := range evs {
		if evs2[i] != ev {
			t.Fatalf("seq %d changed across restart:\n live %+v\nreplay %+v", ev.Seq, ev, evs2[i])
		}
	}
	if got, err := os.ReadFile(m2.ShotsPath(st.ID)); err != nil || !bytes.Equal(got, refShots) {
		t.Fatalf("resumed job's shots differ from the reference run's (err=%v)", err)
	}
}

// writeJobsLog writes a jobs.log as a parent daemon did, one record per
// entry.
func writeJobsLog(t *testing.T, dataDir string, recs ...jobRecord) {
	t.Helper()
	j, _, err := checkpoint.Open(filepath.Join(dataDir, "jobs.log"), jobsJournalHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// writeEvents journals evs as job id's event history under dataDir.
func writeEvents(t *testing.T, dataDir, id string, spec *JobSpec, evs ...JobEvent) {
	t.Helper()
	path := filepath.Join(dataDir, "jobs", id, "events.log")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	h, err := newHubFS(nil, path, id, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for _, ev := range evs {
		if _, err := h.publish(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentJobsLogSynthesizesLostTerminalEvent: a parent daemon
// journaled a job's terminal record in jobs.log and died (or lost its
// event journal) before the terminal event. Recovery reads that jobs.log
// — it never writes one — and synthesizes the event from the record, the
// same one at every restart.
func TestParentJobsLogSynthesizesLostTerminalEvent(t *testing.T) {
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	writeEvents(t, dataDir, "job-0000", spec,
		JobEvent{Kind: "state", State: string(JobQueued)},
		JobEvent{Kind: "state", State: string(JobRunning)})
	writeJobsLog(t, dataDir,
		jobRecord{ID: "job-0000", State: JobQueued, Spec: spec, Time: fixedNow()},
		jobRecord{ID: "job-0000", State: JobRunning, Time: fixedNow()},
		jobRecord{ID: "job-0000", State: JobFailed, Error: "event journal: no space", Time: fixedNow()})
	logBytes, err := os.ReadFile(filepath.Join(dataDir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	var first []JobEvent
	for restart := 0; restart < 2; restart++ {
		m := storageManager(t, dataDir, testLayoutRoot(t), nil)
		st, err := m.Status("job-0000")
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobFailed || st.Error != "event journal: no space" {
			t.Fatalf("restart %d recovered %s (%q), want jobs.log's failed record", restart, st.State, st.Error)
		}
		evs := replaySeqs(t, m, "job-0000")
		if last := evs[len(evs)-1]; len(evs) != 3 || last.State != string(JobFailed) || last.Error != st.Error {
			t.Fatalf("restart %d replays %+v, want the synthesized failed event third", restart, evs)
		}
		if h := m.StorageHealth(); h.SynthEvents != 1 {
			t.Fatalf("terminal event not synthesized exactly once: %+v", h)
		}
		if first == nil {
			first = evs
		} else if evs[2] != first[2] {
			t.Fatalf("synthesized event changed across restarts: %+v → %+v", first[2], evs[2])
		}
		m.Stop()
	}
	if got, err := os.ReadFile(filepath.Join(dataDir, "jobs.log")); err != nil || !bytes.Equal(got, logBytes) {
		t.Fatalf("recovery wrote to the parent's jobs.log (err=%v)", err)
	}
}

// TestSubmitAfterUnrecordedQueuedJob: a data directory holds job-0000
// with a durable queued event for one spec and no jobs.log record — a
// parent daemon killed between the two — and job-0001 whose journal
// header was torn at birth. Recovery runs job-0000 to done, skips
// job-0001, and a submission of another spec is job-0002. (A daemon
// that took jobs.log as the list of jobs handed job-0000 out again, and
// every later submission failed on the journal it found there.)
func TestSubmitAfterUnrecordedQueuedJob(t *testing.T) {
	lroot := testLayoutRoot(t)
	specA, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	writeEvents(t, dataDir, "job-0000", specA, JobEvent{Kind: "state", State: string(JobQueued)})
	writeEvents(t, dataDir, "job-0001", specB)
	torn := filepath.Join(dataDir, "jobs", "job-0001", "events.log")
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	writeJobsLog(t, dataDir)

	m := storageManager(t, dataDir, lroot, nil)
	defer m.Stop()
	if jobs := m.List(); len(jobs) != 1 || jobs[0].ID != "job-0000" || jobs[0].State != JobQueued {
		t.Fatalf("recovered %+v, want job-0000 queued alone", jobs)
	}
	st, err := m.Submit(specB)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if st.ID != "job-0002" {
		t.Fatalf("submission got %s, want job-0002", st.ID)
	}
	m.Start()
	if fin := waitTerminal(t, m, "job-0000"); fin.State != JobDone {
		t.Fatalf("recovered job ended %s (%q), want done", fin.State, fin.Error)
	}
	if fin := waitTerminal(t, m, st.ID); fin.State != JobDone {
		t.Fatalf("new job ended %s (%q), want done", fin.State, fin.Error)
	}
}

// TestStorageFaultMatrix drives a full daemon job under the CI fault
// matrix (IOFAULT=enospc|eio-sync|torn|rename). Invariant: whatever
// the fault hits, the job ends in a clean terminal state (or the
// submission is cleanly rejected), the daemon never wedges, and a
// healthy restart recovers every job with a seq-exact replay.
func TestStorageFaultMatrix(t *testing.T) {
	kind := os.Getenv("IOFAULT")
	if kind == "" {
		t.Skip("IOFAULT not set; run via the storage-fault matrix")
	}
	plan, err := faultfs.PlanForKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	lroot := testLayoutRoot(t)
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	ff := faultfs.NewFaultFS(nil, plan)
	m, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: lroot, FS: ff, Now: fixedNow})
	if err != nil {
		t.Logf("%s: manager construction cleanly refused: %v", kind, err)
		return
	}
	st, err := m.Submit(spec)
	if err != nil {
		t.Logf("%s: submission cleanly rejected: %v", kind, err)
		if n := len(m.List()); n != 0 {
			t.Fatalf("%d ghost jobs after rejection", n)
		}
		m.Stop()
	} else {
		m.Start()
		fin := waitTerminal(t, m, st.ID)
		if fin.State != JobDone && fin.State != JobFailed {
			t.Fatalf("job ended %s under %s", fin.State, kind)
		}
		t.Logf("%s: job ended %s (%q), faults %+v", kind, fin.State, fin.Error, ff.Stats())
		m.Stop()
	}

	// Healthy restart: recovery must succeed and every surviving job
	// must replay contiguously; an interrupted one must run to done.
	m2 := storageManager(t, dataDir, lroot, nil)
	defer m2.Stop()
	for _, j := range m2.List() {
		replaySeqs(t, m2, j.ID)
		if !j.State.terminal() {
			m2.Start()
			if fin := waitTerminal(t, m2, j.ID); fin.State != JobDone {
				t.Fatalf("recovered job ended %s (%q), want done", fin.State, fin.Error)
			}
			replaySeqs(t, m2, j.ID)
		}
	}
}

// TestCrashConsistencyDaemon is the daemon half of the tentpole
// harness: record every filesystem mutation of a complete daemon job —
// the event journal, the flow checkpoint, the mask and shot artifacts —
// then materialize EVERY write-op prefix (plus torn variants) as a crash
// state and recover a fresh Manager from it. Recovery must always
// construct, every event replay must be seq-contiguous, a job recovered
// as done must have byte-identical artifacts, a job recovered mid-run
// must resume to the byte-identical result, and a submission of another
// spec must be admitted under an ID no directory holds.
func TestCrashConsistencyDaemon(t *testing.T) {
	lroot := testLayoutRoot(t)
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	rec := faultfs.NewRecorder(nil, root)
	m := storageManager(t, filepath.Join(root, "data"), lroot, rec)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if fin := waitTerminal(t, m, st.ID); fin.State != JobDone {
		t.Fatalf("recorded job ended %s (%q)", fin.State, fin.Error)
	}
	refEvs := replaySeqs(t, m, st.ID)
	refShots, err := os.ReadFile(m.ShotsPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	refMask, err := os.ReadFile(m.MaskPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	// Where the committer's events.log syncs fall is timing: how many
	// events each one covered differs run to run, and with it the op
	// count and every index after the first batch. Materialize replays a
	// sync as a no-op — no crash state depends on one — so re-space them
	// one per event record, the most a run can issue, and the prefix-NNN /
	// torn-NNN names below are the same in every run.
	// The mask goes out one 64-row band per write; a crash can tear a
	// write that size at any page. Cut its byte stream every 4 KB — more
	// crash states than the daemon's own write boundaries, and the op list
	// a 4 KB-buffered writer issued, which WriteMask was when the
	// prefix-NNN / torn-NNN names were first counted. parentNumbering
	// keeps those names on the same crash states now that jobs.log is gone.
	ops := parentNumbering(rechunkWrites(respaceEventSyncs(rec.Ops()), "mask.pgm", 4096))
	if len(ops) < 15 {
		t.Fatalf("recorder captured only %d ops; the daemon is not going through the seam", len(ops))
	}
	if len(refEvs) == 0 || refEvs[len(refEvs)-1].State != string(JobDone) {
		t.Fatal("reference stream does not end in done")
	}

	verify := func(t *testing.T, dir string, runToEnd bool) {
		m2, err := NewManager(ManagerConfig{DataDir: filepath.Join(dir, "data"), LayoutRoot: lroot, Now: fixedNow})
		if err != nil {
			t.Fatalf("recovery failed to construct a manager: %v", err)
		}
		defer m2.Stop()
		jobs := m2.List()
		defer admitsAnother(t, m2, dir)
		if len(jobs) == 0 {
			return // crashed before the job became durable: cleanly absent
		}
		j := jobs[0]
		evs := replaySeqs(t, m2, j.ID)
		switch {
		case j.State == JobDone:
			// The done event is durable, so the artifacts — written and
			// fsynced before it — must be complete and byte-identical.
			if last := evs[len(evs)-1]; last.Kind != "state" || last.State != string(JobDone) {
				t.Fatalf("done job's stream ends with %+v", last)
			}
			gotShots, err := os.ReadFile(m2.ShotsPath(j.ID))
			if err != nil || !bytes.Equal(gotShots, refShots) {
				t.Fatalf("done job's shots differ from reference (err=%v)", err)
			}
			gotMask, err := os.ReadFile(m2.MaskPath(j.ID))
			if err != nil || !bytes.Equal(gotMask, refMask) {
				t.Fatalf("done job's mask differs from reference (err=%v)", err)
			}
		case j.State.terminal():
			t.Fatalf("job recovered as %s from a crash of a clean run", j.State)
		case runToEnd:
			m2.Start()
			if fin := waitTerminal(t, m2, j.ID); fin.State != JobDone {
				t.Fatalf("resumed job ended %s (%q)", fin.State, fin.Error)
			}
			replaySeqs(t, m2, j.ID)
			gotShots, err := os.ReadFile(m2.ShotsPath(j.ID))
			if err != nil || !bytes.Equal(gotShots, refShots) {
				t.Fatalf("resumed job's shots differ from reference (err=%v)", err)
			}
			gotMask, err := os.ReadFile(m2.MaskPath(j.ID))
			if err != nil || !bytes.Equal(gotMask, refMask) {
				t.Fatalf("resumed job's mask differs from reference (err=%v)", err)
			}
		}
	}

	stride := 1
	if testing.Short() {
		stride = 3
	}
	// Resuming a run is the expensive part; sample it so the harness
	// replays every crash state but re-runs only ~8 of them.
	runEvery := len(ops) / 8
	if runEvery < 1 {
		runEvery = 1
	}
	for n := 0; n <= len(ops); n += stride {
		n := n
		t.Run(fmt.Sprintf("prefix-%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := faultfs.Materialize(dir, ops, n); err != nil {
				t.Fatal(err)
			}
			verify(t, dir, n%runEvery == 0)
		})
	}
	// Group commit's own exposure: the crash kept every write to the other
	// files but lost the events.log tail no Sync had covered — events no
	// client saw. Which syncs had run by then is timing, so take the worst
	// case the protocol allows: between submit and the terminal event
	// nothing waits for a batch, so everything after the queued event (the
	// journal's third write) may be gone, at every prefix but the last.
	t.Run("unsynced-tail-lost", func(t *testing.T) {
		events := filepath.Join("data", "jobs", st.ID, "events.log")
		var queuedEnd int64
		writes, states := 0, 0
		for n := 1; n < len(ops); n++ {
			if op := ops[n-1]; op.Path == events && op.Kind == faultfs.OpWrite {
				if writes++; writes == 3 {
					queuedEnd = op.Off + int64(len(op.Data))
				}
			}
			if writes <= 3 || n%stride != 0 {
				continue
			}
			dir := t.TempDir()
			if err := faultfs.Materialize(dir, ops, n); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, events), queuedEnd); err != nil {
				t.Fatal(err)
			}
			verify(t, dir, states%16 == 0)
			states++
		}
		if states == 0 {
			t.Fatal("no crash state had an event past the queued one")
		}
	})
	// Torn variants: the crash hit mid-write, leaving half the payload.
	for _, n := range faultfs.WriteBoundaries(ops) {
		if ops[n-1].Kind != faultfs.OpWrite || len(ops[n-1].Data) < 2 {
			continue
		}
		if n%stride != 0 {
			continue
		}
		n := n
		t.Run(fmt.Sprintf("torn-%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := faultfs.MaterializeTorn(dir, ops, n, len(ops[n-1].Data)/2); err != nil {
				t.Fatal(err)
			}
			verify(t, dir, false)
		})
	}
}

// admitsAnother submits a spec other than the recorded job's to a
// recovered manager: it must be admitted, under an ID no directory in
// the crash state held.
func admitsAnother(t *testing.T, m *Manager, dir string) {
	t.Helper()
	other, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	held, err := os.ReadDir(filepath.Join(dir, "data", "jobs"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	st, err := m.Submit(other)
	if err != nil {
		t.Fatalf("submission after recovery refused: %v", err)
	}
	for _, d := range held {
		if d.Name() == st.ID {
			t.Fatalf("submission after recovery got %s, whose directory the crash state held", st.ID)
		}
	}
}

// TestJobRecordDurabilityOrder holds one job's fsyncs to the order the
// crash harness cannot see (it replays every sync as a no-op): Submit
// returns only after the header and the seq-1 event are written, the
// event journal is fsynced, and the job directory and then jobs/ are
// synced; the shot list and the mask are fsynced before the terminal
// event is written; and nothing touches jobs.log.
func TestJobRecordDurabilityOrder(t *testing.T) {
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	rec := faultfs.NewRecorder(nil, root)
	m := storageManager(t, filepath.Join(root, "data"), testLayoutRoot(t), rec)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join("data", "jobs", st.ID)
	events := filepath.Join(jobDir, "events.log")
	header := eventJournalHeader(st.ID, spec)
	isWrite := func(path string, marker []byte) func(faultfs.Op) bool {
		return func(op faultfs.Op) bool {
			return op.Kind == faultfs.OpWrite && op.Path == path && bytes.Contains(op.Data, marker)
		}
	}
	is := func(kind faultfs.OpKind, path string) func(faultfs.Op) bool {
		return func(op faultfs.Op) bool { return op.Kind == kind && op.Path == path }
	}
	// inOrder returns the index of each step's first match after the
	// previous step's, failing on a step it cannot find.
	inOrder := func(ops []faultfs.Op, steps ...func(faultfs.Op) bool) []int {
		t.Helper()
		at, i := make([]int, len(steps)), 0
		for k, step := range steps {
			for i < len(ops) && !step(ops[i]) {
				i++
			}
			if i == len(ops) {
				t.Fatalf("step %d of %d missing from the op log %v", k+1, len(steps), ops)
			}
			at[k] = i
			i++
		}
		return at
	}
	submitted := rec.Ops()
	at := inOrder(submitted,
		isWrite(events, header),
		isWrite(events, []byte(`{"seq":1,"kind":"state","state":"queued"`)),
		is(faultfs.OpSync, events),
		is(faultfs.OpSyncDir, jobDir),
		is(faultfs.OpSyncDir, filepath.Join("data", "jobs")))
	if last := at[len(at)-1]; last != len(submitted)-1 {
		t.Fatalf("Submit returned with %d ops after the jobs/ sync", len(submitted)-1-last)
	}

	m.Start()
	if fin := waitTerminal(t, m, st.ID); fin.State != JobDone {
		t.Fatalf("job ended %s (%q)", fin.State, fin.Error)
	}
	m.Stop()
	ops := rec.Ops()
	done := inOrder(ops, isWrite(events, []byte(`"state":"done"`)))[0]
	inOrder(ops[done:], is(faultfs.OpSync, events))
	for _, name := range []string{"shots.csv", "mask.pgm"} {
		if synced := inOrder(ops, is(faultfs.OpSync, filepath.Join(jobDir, name)))[0]; synced > done {
			t.Errorf("%s fsynced at op %d, after the terminal event's write at op %d", name, synced, done)
		}
	}
	for _, op := range ops {
		if filepath.Base(op.Path) == "jobs.log" || filepath.Base(op.Path2) == "jobs.log" {
			t.Fatalf("op %v names jobs.log", op)
		}
	}
}

// respaceEventSyncs returns ops with every events.log sync removed and
// one inserted after each event record (each events.log write but the
// journal's magic and header).
func respaceEventSyncs(ops []faultfs.Op) (out []faultfs.Op) {
	writes := 0
	for _, op := range ops {
		isEvents := strings.HasSuffix(op.Path, "events.log")
		if isEvents && op.Kind == faultfs.OpSync {
			continue
		}
		out = append(out, op)
		if isEvents && op.Kind == faultfs.OpWrite {
			if writes++; writes > 2 {
				out = append(out, faultfs.Op{Kind: faultfs.OpSync, Path: op.Path})
			}
		}
	}
	return out
}

// parentNumbering returns ops numbered as the daemon's op list was when
// the prefix-NNN / torn-NNN names were first counted, when each job also
// kept a jobs.log record. The SyncDirs that took its place go: Materialize
// replays them as no-ops, and TestJobRecordDurabilityOrder holds their
// order. Each op jobs.log took holds a no-op in its slot — three after
// jobs/ is made, four after the queued event's fsync, two after the
// mask's — so a crash state there is the one before it.
func parentNumbering(ops []faultfs.Op) (out []faultfs.Op) {
	pad := func(k int) {
		for ; k > 0; k-- {
			out = append(out, faultfs.Op{Kind: faultfs.OpSync})
		}
	}
	eventSyncs := 0
	for _, op := range ops {
		if op.Kind == faultfs.OpSyncDir {
			continue
		}
		out = append(out, op)
		switch base := filepath.Base(op.Path); {
		case op.Kind == faultfs.OpMkdir && op.Path == filepath.Join("data", "jobs"):
			pad(3)
		case op.Kind == faultfs.OpSync && base == "events.log":
			if eventSyncs++; eventSyncs == 1 {
				pad(4)
			}
		case op.Kind == faultfs.OpSync && base == "mask.pgm":
			pad(2)
		}
	}
	return out
}

// rechunkWrites returns ops with the writes to the file called name
// re-cut as a writer with a chunk-byte buffer would have issued them:
// full chunks as the stream fills them, the remainder before the file's
// next other operation.
func rechunkWrites(ops []faultfs.Op, name string, chunk int) (out []faultfs.Op) {
	var pend faultfs.Op
	flush := func() {
		if len(pend.Data) > 0 {
			out = append(out, pend)
			pend = faultfs.Op{}
		}
	}
	for _, op := range ops {
		if filepath.Base(op.Path) != name {
			out = append(out, op)
			continue
		}
		if op.Kind != faultfs.OpWrite {
			flush()
			out = append(out, op)
			continue
		}
		for off, data := op.Off, op.Data; len(data) > 0; {
			if len(pend.Data) == 0 {
				pend = faultfs.Op{Kind: faultfs.OpWrite, Path: op.Path, Off: off}
			}
			n := min(chunk-len(pend.Data), len(data))
			pend.Data = append(pend.Data, data[:n]...)
			off, data = off+int64(n), data[n:]
			if len(pend.Data) == chunk {
				flush()
			}
		}
	}
	flush()
	return out
}
