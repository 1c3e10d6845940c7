// Recovery: how a daemon rebuilds its job table from the data directory
// a previous life left (DESIGN §8).
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/iox"
	"cfaopc/internal/wcache"
)

// ManagerConfig configures a Manager. DataDir is required; it holds one
// directory per job under jobs/ (event journal, flow checkpoint, mask,
// shots). The event journal is the job's one durable record.
type ManagerConfig struct {
	DataDir    string
	LayoutRoot string // root for spec layout refs (default ".")
	MaxActive  int    // concurrent running jobs (default 1)
	QueueCap   int    // max queued jobs (default 64)
	Now        func() time.Time
	// FS is the filesystem seam every daemon write goes through —
	// per-job event journals, flow checkpoints, mask and shot
	// artifacts. nil means the real filesystem; tests inject fault or
	// recording filesystems here.
	FS iox.FS

	// Governor sizes the admission budget and pressure watermarks.
	Governor GovernorConfig
	// QueueTTL bounds how long a job may wait in the queue before it
	// ends deadline_exceeded (anchored at first admission, surviving
	// restarts). 0 disables the TTL.
	QueueTTL time.Duration
	// WedgeTimeout is the job-level watchdog: a running job that
	// publishes no event (state, beat, tile) for this long is killed as
	// wedged. The flow's per-tile stall detector only sees iterations
	// inside one engine call. 0 defaults to 2m; <0 disables.
	WedgeTimeout time.Duration
	// MonitorEvery is the governor pulse interval (watermark sample,
	// deadline sweep, wedge scan). 0 disables the background monitor —
	// the daemon turns it on explicitly; tests drive Pulse directly.
	MonitorEvery time.Duration
	// MaxQueueWait is the scheduler's anti-starvation bound: a job
	// queued longer than this preempts every priority. 0 defaults to
	// 5m; <0 disables.
	MaxQueueWait time.Duration
	// Cache is the shared window dedup cache given to every job run
	// (nil = uncached). Under memory pressure the governor shrinks its
	// memory tier and restores it when pressure recedes.
	Cache *wcache.Cache
}

// NewManager opens (or creates) the data directory and rebuilds the
// job table from the job directories in it.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: ManagerConfig.DataDir is required")
	}
	cfg.LayoutRoot = cmp.Or(cfg.LayoutRoot, ".")
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.WedgeTimeout = cmp.Or(cfg.WedgeTimeout, 2*time.Minute)
	cfg.MaxQueueWait = cmp.Or(cfg.MaxQueueWait, 5*time.Minute)
	fsys := iox.OrOS(cfg.FS)
	if err := fsys.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dataDir:      cfg.DataDir,
		layoutRoot:   cfg.LayoutRoot,
		maxActive:    cfg.MaxActive,
		now:          cfg.Now,
		fsys:         fsys,
		jobs:         map[string]*job{},
		sched:        newScheduler(cfg.QueueCap),
		gov:          newGovernor(cfg.Governor),
		queueTTL:     cfg.QueueTTL,
		wedgeTimeout: cfg.WedgeTimeout,
		monitorEvery: cfg.MonitorEvery,
		cache:        cfg.Cache,
		runSpec:      RunSpec,
	}
	m.sched.now = cfg.Now
	m.sched.maxWait = max(cfg.MaxQueueWait, 0) // negative disables
	if m.cache != nil {
		m.cacheBytes0 = m.cache.Limits()
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m, nil
}

// recover rebuilds the job table from jobs/ in ID order: a job's spec is
// its events.log header, its state its newest state event, its
// admission time seq 1's. A directory with no durable queued event is a
// submit the crash cut short: skipped, its ID used up. Terminal jobs
// reload their history read-only; the rest requeue (queueLocked) and
// resume from their flow checkpoint.
func (m *Manager) recover() error {
	legacy, err := m.readJobsLog()
	if err != nil {
		return err
	}
	dirs, err := os.ReadDir(filepath.Join(m.dataDir, "jobs"))
	if err != nil {
		return err
	}
	for _, d := range dirs {
		id := d.Name()
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || !d.IsDir() {
			continue
		}
		m.nextID = max(m.nextID, n+1)
		spec, evs, err := readJournal(m.fsys, m.eventPath(id), id)
		if iox.IsNotExist(err) || err == nil && len(evs) == 0 {
			continue
		}
		if err != nil {
			return fmt.Errorf("server: job %s: %w", id, err)
		}
		j := &job{id: id, spec: spec}
		for i := len(evs) - 1; i >= 0; i-- {
			if ev := evs[i]; ev.Kind == "state" {
				j.state, j.errMsg, j.shots, j.travel = JobState(ev.State), ev.Error, ev.Shots, ev.TravelNM
				break
			}
		}
		evs, admitted := m.settle(legacy[id], j, evs)
		if j.state.terminal() {
			// Finished jobs need no new events: no append handle.
			j.hub = newHub(nil, evs)
			m.jobs[id] = j
			m.order = append(m.order, id)
			continue
		}
		// Priced again; the reservation is forced through, as a job a
		// previous life admitted must not vanish if the budget shrank.
		rects := 0
		if l, err := spec.ResolveLayout(m.layoutRoot); err == nil {
			rects = len(l.Rects)
		}
		j.cost = EstimateCost(spec, rects)
		if evs[0].Admitted != 0 {
			admitted = time.Unix(0, evs[0].Admitted)
		} else if admitted.IsZero() {
			admitted = m.now()
		}
		if err := m.queueLocked(j, admitted, false); err != nil {
			return fmt.Errorf("server: requeue %s: %w", id, err)
		}
	}
	return nil
}

// StorageHealth is the daemon's storage-degradation snapshot, served
// under /healthz. A healthy daemon shows growing byte counts and zero
// everywhere else; any non-empty error or non-zero counter means a
// journal failed and the affected jobs ended (or will end) cleanly
// without it.
type StorageHealth struct {
	// EventLogBytes sums the open per-job event journals.
	EventLogBytes int64 `json:"event_log_bytes"`
	// EventErrs counts terminal events that could not be journaled
	// (their jobs' streams ended without one, and the next daemon
	// requeues them); SynthEvents counts terminal events recovery
	// synthesized from the jobs.log of an older daemon whose event
	// journal lost them.
	EventErrs   int64 `json:"event_errs,omitempty"`
	SynthEvents int64 `json:"synth_events,omitempty"`
}

// StorageHealth reports the daemon's storage-degradation snapshot.
func (m *Manager) StorageHealth() StorageHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := StorageHealth{EventErrs: m.eventErrs.Load(), SynthEvents: m.synthEvents}
	for _, j := range m.jobs {
		sh.EventLogBytes += j.hub.journalSize()
	}
	return sh
}

// anchorDeadlines derives a job's absolute deadline and its expiry —
// the sooner of that deadline and the queue TTL — from its admission
// time, which requeues never move.
func (m *Manager) anchorDeadlines(j *job, admitted time.Time) {
	if j.spec.DeadlineMS > 0 {
		j.deadlineAt = admitted.Add(time.Duration(j.spec.DeadlineMS) * time.Millisecond)
		j.expireAt = j.deadlineAt
	}
	if ttl := admitted.Add(m.queueTTL); m.queueTTL > 0 && (j.expireAt.IsZero() || ttl.Before(j.expireAt)) {
		j.expireAt = ttl
	}
}

// jobsJournalHeader fingerprints jobs.log, the job-state journal older
// daemons wrote beside the event journals. It is decode-only: read from
// their data directories, never created or written.
var jobsJournalHeader = []byte("cfaopcd-jobs-v1")

// jobRecord is one jobs.log entry. Records merge last-wins per ID: the
// first carried the spec and the admission time, later ones moved the
// state machine.
type jobRecord struct {
	ID    string    `json:"id"`
	State JobState  `json:"state"`
	Spec  *JobSpec  `json:"spec,omitempty"` // on the first (queued) record only
	Error string    `json:"error,omitempty"`
	Shots int       `json:"shots,omitempty"` // on the done record
	Time  time.Time `json:"time"`
}

// readJobsLog decodes the jobs.log an older daemon left in the data
// directory, if any, merged per ID: the newest record's state, error and
// shots under the first record's spec and time.
func (m *Manager) readJobsLog() (map[string]*jobRecord, error) {
	payloads, err := checkpoint.ReadFS(m.fsys, filepath.Join(m.dataDir, "jobs.log"), jobsJournalHeader)
	if iox.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: job journal: %w", err)
	}
	merged := map[string]*jobRecord{}
	for i, p := range payloads {
		var rec jobRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return nil, fmt.Errorf("server: job journal record %d: %w", i, err)
		}
		if prev := merged[rec.ID]; prev != nil {
			rec.Spec, rec.Time = prev.Spec, prev.Time
		} else if rec.Spec == nil {
			return nil, fmt.Errorf("server: job %s has state records but no spec", rec.ID)
		}
		merged[rec.ID] = &rec
	}
	return merged, nil
}

// settle is all recovery takes from j's jobs.log record (nil when an
// older daemon left none). A terminal record whose event was lost — a
// crash, or a dead event journal, between the two — becomes the
// journal's next event, deterministically (same record, same history
// length, same seq), so Last-Event-ID replays stay exact. It also
// returns the record's admission time (zero without one).
func (m *Manager) settle(rec *jobRecord, j *job, evs []JobEvent) ([]JobEvent, time.Time) {
	if rec == nil {
		return evs, time.Time{}
	}
	if rec.State.terminal() && !j.state.terminal() {
		j.state, j.errMsg, j.shots = rec.State, rec.Error, rec.Shots
		evs = append(evs, JobEvent{
			Seq: int64(len(evs)) + 1, Kind: "state",
			State: string(rec.State), Error: rec.Error, Shots: rec.Shots,
		})
		m.synthEvents++
	}
	return evs, rec.Time
}
