package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/flow"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/wcache"
)

// JobState is a job's lifecycle position. Terminal states (done,
// failed, canceled, deadline_exceeded) never change again — not even
// across restarts.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobDeadline means the job's DeadlineMS or the daemon's queue TTL
	// expired before the job finished. Its flow checkpoint is
	// preserved: resubmitting the same spec against the same data
	// directory resumes from the completed tiles.
	JobDeadline JobState = "deadline_exceeded"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobDeadline
}

// Cancellation causes, threaded through context.Cause so the executor
// can type the terminal state after flow.RunContext unwinds.
var (
	errDeadlineCause = errors.New("job deadline exceeded")
	errWedgeCause    = errors.New("job wedged: no events within the watchdog window")
	errShedCause     = errors.New("job shed under memory pressure")
)

// jobsJournalHeader fingerprints the daemon's job-state journal.
var jobsJournalHeader = []byte("cfaopcd-jobs-v1")

// jobRecord is one job-state journal entry. Recovery merges records
// last-wins per ID: the first record carries the spec, later ones move
// the state machine. A job whose newest record is non-terminal was
// alive when the daemon died and is requeued on restart.
type jobRecord struct {
	ID    string    `json:"id"`
	State JobState  `json:"state"`
	Spec  *JobSpec  `json:"spec,omitempty"` // on the first (queued) record only
	Error string    `json:"error,omitempty"`
	Shots int       `json:"shots,omitempty"` // on the done record
	Time  time.Time `json:"time"`
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Tenant   string   `json:"tenant"`
	Priority int      `json:"priority"`
	Grid     int      `json:"grid"` // simulation grid edge (mask dimensions)
	Error    string   `json:"error,omitempty"`
	Shots    int      `json:"shots,omitempty"`
	LastSeq  int64    `json:"last_seq"` // newest published event seq
	// CostBytes is the governor's admitted peak-memory estimate.
	CostBytes int64 `json:"cost_bytes,omitempty"`
	// DeadlineUnixMS is the absolute wall-clock deadline (per-job
	// DeadlineMS and/or queue TTL, whichever is sooner), 0 when none.
	DeadlineUnixMS int64 `json:"deadline_unix_ms,omitempty"`
}

// job is the manager's in-memory record of one job. The manager lock
// guards every field except lastEv; the hub has its own lock for the
// event stream.
type job struct {
	id       string
	spec     *JobSpec
	state    JobState
	errMsg   string
	shots    int
	hub      *hub
	canceled bool // cancel requested (may still be dispatching)
	wedged   bool // wedge watchdog fired (counted once)
	stopRun  context.CancelCauseFunc
	cost     Cost
	// deadlineAt is the job's absolute deadline (zero = none),
	// anchored at the first journaled record's timestamp so it
	// survives restarts; ttlAt bounds the queue wait the same way.
	deadlineAt time.Time
	ttlAt      time.Time
	// lastEv is the unix-nano timestamp of the job's newest published
	// event, written by the executor's event bridge and read by the
	// wedge watchdog — atomic so beats never take the manager lock.
	lastEv atomic.Int64
}

// dispatchDeadline returns the job's effective dispatch-time deadline:
// the sooner of the per-job deadline and the queue TTL (a job the TTL
// expired on while queued must not start just because dispatch raced
// the sweep). Zero when neither applies.
func (j *job) dispatchDeadline() time.Time {
	d := j.deadlineAt
	if !j.ttlAt.IsZero() && (d.IsZero() || j.ttlAt.Before(d)) {
		d = j.ttlAt
	}
	return d
}

// ManagerConfig configures a Manager. DataDir is required; it holds
// jobs.log plus one directory per job (event journal, flow checkpoint,
// mask, shots).
type ManagerConfig struct {
	DataDir    string
	LayoutRoot string // root for spec layout refs (default ".")
	MaxActive  int    // concurrent running jobs (default 1)
	QueueCap   int    // max queued jobs (default 64)
	Now        func() time.Time
	// FS is the filesystem seam every daemon write goes through —
	// jobs.log, per-job event journals, flow checkpoints, mask and shot
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
	// publishes no event (state, beat, tile) for this long is
	// killed as wedged. Distinct from the flow's per-tile stall
	// detector, which only sees iterations inside one engine call —
	// this one catches jobs that stop emitting anything at all.
	// 0 defaults to 2m; <0 disables.
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

// Manager owns the job table, the scheduler, and the executor pool. It
// recovers existing state from DataDir at construction: terminal jobs
// reload their event history read-only, and every queued or running
// job is requeued in ID order, resuming from its flow checkpoint.
type Manager struct {
	mu         sync.Mutex
	dataDir    string
	layoutRoot string
	maxActive  int
	now        func() time.Time
	fsys       iox.FS
	jobs       map[string]*job
	order      []string // creation order, for List
	nextID     int
	sched      *scheduler
	journal    *checkpoint.Journal // jobs.log
	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	started    bool

	gov          *governor
	queueTTL     time.Duration
	wedgeTimeout time.Duration
	monitorEvery time.Duration
	cache        *wcache.Cache
	// Full-size cache budgets, saved so the shrink rung can restore them.
	cacheEntries0 int
	cacheBytes0   int64
	// runSpec is the executor seam, RunSpec in production. Tests swap
	// in stand-ins (a silent blocker for the wedge watchdog, a slow
	// canceler for shed/deadline paths) without heavy compute.
	runSpec func(ctx context.Context, l *layout.Layout, spec *JobSpec, opts RunOpts) (*flow.Result, error)

	// Storage degradation counters, surfaced by StorageHealth.
	recordErrs  atomic.Int64 // failed jobs.log appends/syncs
	eventErrs   atomic.Int64 // terminal events lost to a dead event journal
	synthEvents int64        // terminal events synthesized during recovery
}

// StorageHealth is the daemon's storage-degradation snapshot, served
// under /healthz. A healthy daemon shows growing byte counts and zero
// everywhere else; any non-empty error or non-zero counter means a
// journal failed and the affected jobs ended (or will end) cleanly
// without it.
type StorageHealth struct {
	// JobsLogBytes is jobs.log's size; JobsLogErr is the poisoning
	// error if an append or fsync on it ever failed (the journal is
	// never retried on the same fd — see internal/checkpoint).
	JobsLogBytes int64  `json:"jobs_log_bytes"`
	JobsLogErr   string `json:"jobs_log_err,omitempty"`
	// EventLogBytes sums the open per-job event journals.
	EventLogBytes int64 `json:"event_log_bytes"`
	// RecordErrs counts failed job-state journal writes; EventErrs
	// counts terminal events that could not be journaled (their jobs'
	// streams ended without one); SynthEvents counts terminal events
	// recovery synthesized for jobs whose journal lost theirs.
	RecordErrs  int64 `json:"record_errs,omitempty"`
	EventErrs   int64 `json:"event_errs,omitempty"`
	SynthEvents int64 `json:"synth_events,omitempty"`
}

// StorageHealth reports the daemon's storage-degradation snapshot.
func (m *Manager) StorageHealth() StorageHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := StorageHealth{
		RecordErrs:  m.recordErrs.Load(),
		EventErrs:   m.eventErrs.Load(),
		SynthEvents: m.synthEvents,
	}
	if m.journal != nil {
		sh.JobsLogBytes = m.journal.Size()
		if err := m.journal.Err(); err != nil {
			sh.JobsLogErr = err.Error()
		}
	}
	for _, j := range m.jobs {
		sh.EventLogBytes += j.hub.journalSize()
	}
	return sh
}

// ErrNoJob is returned for operations on an unknown job ID.
var ErrNoJob = errors.New("server: no such job")

// NewManager opens (or creates) the data directory and rebuilds the
// job table from the job-state journal.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: ManagerConfig.DataDir is required")
	}
	if cfg.LayoutRoot == "" {
		cfg.LayoutRoot = "."
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.WedgeTimeout == 0 {
		cfg.WedgeTimeout = 2 * time.Minute
	}
	if cfg.MaxQueueWait == 0 {
		cfg.MaxQueueWait = 5 * time.Minute
	}
	fsys := iox.OrOS(cfg.FS)
	if err := fsys.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	journal, payloads, err := checkpoint.OpenFS(fsys, filepath.Join(cfg.DataDir, "jobs.log"), jobsJournalHeader)
	if err != nil {
		return nil, fmt.Errorf("server: job journal: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dataDir:      cfg.DataDir,
		layoutRoot:   cfg.LayoutRoot,
		maxActive:    cfg.MaxActive,
		now:          cfg.Now,
		fsys:         fsys,
		jobs:         map[string]*job{},
		sched:        newScheduler(cfg.QueueCap),
		journal:      journal,
		ctx:          ctx,
		cancel:       cancel,
		gov:          newGovernor(cfg.Governor),
		queueTTL:     cfg.QueueTTL,
		wedgeTimeout: cfg.WedgeTimeout,
		monitorEvery: cfg.MonitorEvery,
		cache:        cfg.Cache,
		runSpec:      RunSpec,
	}
	m.sched.now = cfg.Now
	if cfg.MaxQueueWait > 0 {
		m.sched.maxWait = cfg.MaxQueueWait
	}
	if m.cache != nil {
		m.cacheEntries0, m.cacheBytes0 = m.cache.Limits()
	}
	if err := m.recover(payloads); err != nil {
		journal.Close()
		cancel()
		return nil, err
	}
	return m, nil
}

// recover merges the journal records last-wins, reloads event history,
// and requeues every non-terminal job in ID order.
func (m *Manager) recover(payloads [][]byte) error {
	merged := map[string]*jobRecord{}
	// firstAt keeps each job's first-record timestamp: the admission
	// anchor deadlines and queue TTLs are measured from. Requeue
	// records never move it, so a crash-restart loop cannot extend a
	// job's deadline.
	firstAt := map[string]time.Time{}
	var ids []string
	for i, p := range payloads {
		var rec jobRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("server: job journal record %d: %w", i, err)
		}
		if prev, ok := merged[rec.ID]; ok {
			if rec.Spec == nil {
				rec.Spec = prev.Spec
			}
			merged[rec.ID] = &rec
		} else {
			merged[rec.ID] = &rec
			firstAt[rec.ID] = rec.Time
			ids = append(ids, rec.ID)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := merged[id]
		if rec.Spec == nil {
			return fmt.Errorf("server: job %s has state records but no spec", id)
		}
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
		j := &job{id: id, spec: rec.Spec, state: rec.State, errMsg: rec.Error, shots: rec.Shots}
		if rec.State.terminal() {
			// Finished jobs need no new events: load the history without
			// taking the journal's append handle.
			evs, err := readHistoryFS(m.fsys, m.eventPath(id), id, rec.Spec)
			if err != nil {
				return fmt.Errorf("server: job %s: %w", id, err)
			}
			if n := len(evs); n == 0 || evs[n-1].Kind != "state" || !JobState(evs[n-1].State).terminal() {
				// A crash (or a dead event journal) between the terminal
				// jobRecord and its event left the stream unfinished, which
				// would wedge SSE consumers waiting for the end. Synthesize
				// the terminal event from the authoritative jobRecord. The
				// synthesis is deterministic — same record, same history
				// length, same seq — so every future recovery produces the
				// identical event and Last-Event-ID replays stay exact.
				evs = append(evs, JobEvent{
					Seq: int64(n) + 1, Kind: "state",
					State: string(rec.State), Error: rec.Error, Shots: rec.Shots,
				})
				m.synthEvents++
			}
			j.hub = newHub(nil, evs)
		} else {
			// The job was queued or mid-run when the daemon died: reopen
			// its event journal so seq numbering continues, tell the
			// stream it is queued again, and requeue it. The flow
			// checkpoint makes the re-run byte-identical.
			h, err := newHubFS(m.fsys, m.eventPath(id), id, rec.Spec)
			if err != nil {
				return fmt.Errorf("server: job %s: %w", id, err)
			}
			j.hub = h
			j.state = JobQueued
			err = m.appendRecord(jobRecord{ID: id, State: JobQueued, Time: m.now()})
			if err == nil {
				_, err = h.publish(JobEvent{Kind: "state", State: string(JobQueued)})
			}
			if err == nil {
				err = m.sched.enqueue(id, rec.Spec.Tenant, rec.Spec.Priority)
			}
			if err != nil {
				h.close()
				return fmt.Errorf("server: requeue %s: %w", id, err)
			}
			// Re-anchor deadlines at the first record's time and
			// re-reserve the governor budget. The reservation bypasses
			// admission (force): a job admitted by a previous daemon
			// life must not vanish because the budget shrank.
			m.anchorDeadlines(j, firstAt[id])
			rects := 0
			if l, err := rec.Spec.ResolveLayout(m.layoutRoot); err == nil {
				rects = len(l.Rects)
			}
			j.cost = EstimateCost(rec.Spec, rects)
			m.gov.force(id, j.cost)
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	return nil
}

// anchorDeadlines derives a job's absolute deadline and queue-TTL
// expiry from its admission time.
func (m *Manager) anchorDeadlines(j *job, admitted time.Time) {
	if j.spec.DeadlineMS > 0 {
		j.deadlineAt = admitted.Add(time.Duration(j.spec.DeadlineMS) * time.Millisecond)
	}
	if m.queueTTL > 0 {
		j.ttlAt = admitted.Add(m.queueTTL)
	}
}

// Start launches the executor pool. Jobs submitted before Start queue
// up; nothing runs until it is called.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	for i := 0; i < m.maxActive; i++ {
		m.wg.Add(1)
		go m.executor()
	}
	if m.monitorEvery > 0 {
		m.wg.Add(1)
		go m.monitor()
	}
}

// monitor drives the governor pulse on a wall-clock ticker. Tests call
// Pulse directly instead (MonitorEvery = 0 leaves this off).
func (m *Manager) monitor() {
	defer m.wg.Done()
	t := time.NewTicker(m.monitorEvery)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.Pulse()
		}
	}
}

// Stop halts the executor pool and waits for it. Running jobs are
// interrupted without a terminal record — their journals still say
// running, so a later Manager requeues and resumes them.
func (m *Manager) Stop() {
	m.cancel()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.hub.close()
	}
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
}

// Submit validates nothing — the spec must already be normalized and
// valid (ParseSpec's contract) — resolves the layout to fail fast on a
// missing or malformed file, prices the job, admits it against the
// governor's budget, persists it, and queues it. Admission runs before
// the queue-capacity check, so the admit/reject sequence for a given
// submission history is deterministic: cost gate first, queue cap
// second.
func (m *Manager) Submit(spec *JobSpec) (JobStatus, error) {
	l, err := spec.ResolveLayout(m.layoutRoot)
	if err != nil {
		return JobStatus{}, fmt.Errorf("spec: layout: %w", err)
	}
	// The checks that need the layout's pitch run now, so the client gets
	// the reason as a 400 and nothing unrunnable is journaled.
	if _, err := spec.FlowConfig(l); err != nil {
		return JobStatus{}, err
	}
	cost := EstimateCost(spec, len(l.Rects))
	m.mu.Lock()
	defer m.mu.Unlock()
	id := fmt.Sprintf("job-%04d", m.nextID)
	if err := m.gov.admit(id, cost); err != nil {
		return JobStatus{}, err
	}
	if err := m.sched.enqueue(id, spec.Tenant, spec.Priority); err != nil {
		m.gov.release(id)
		return JobStatus{}, err
	}
	if err := m.fsys.MkdirAll(m.jobDir(id), 0o755); err != nil {
		m.sched.cancel(id)
		m.gov.release(id)
		return JobStatus{}, err
	}
	h, err := newHubFS(m.fsys, m.eventPath(id), id, spec)
	if err != nil {
		m.sched.cancel(id)
		m.gov.release(id)
		return JobStatus{}, err
	}
	// Storage before visibility: the queued event and the queued record
	// must both be durable before the job exists anywhere a client can
	// see it. On failure the submission is rejected whole — queue slot
	// released, journal handle closed, the orphaned event journal
	// removed (best-effort) so a future job reusing the ID starts
	// fresh. The event goes first: an events.log with no jobs.log
	// record is an ignorable orphan at recovery, whereas a jobs.log
	// record for a rejected job would resurrect it.
	reject := func(err error) (JobStatus, error) {
		m.sched.cancel(id)
		m.gov.release(id)
		h.close()
		m.fsys.Remove(m.eventPath(id))
		return JobStatus{}, err
	}
	if _, err := h.publish(JobEvent{Kind: "state", State: string(JobQueued)}); err != nil {
		return reject(err)
	}
	admitted := m.now()
	if err := m.appendRecord(jobRecord{ID: id, State: JobQueued, Spec: spec, Time: admitted}); err != nil {
		return reject(fmt.Errorf("job journal: %w", err))
	}
	m.nextID++
	j := &job{id: id, spec: spec, state: JobQueued, hub: h, cost: cost}
	m.anchorDeadlines(j, admitted)
	m.jobs[id] = j
	m.order = append(m.order, id)
	return m.statusLocked(j), nil
}

// Cancel stops a job: a queued job leaves the queue, a running job's
// context is canceled (its completed tiles stay checkpointed). Cancel
// of a terminal job is a harmless no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNoJob
	}
	if j.state.terminal() {
		return m.statusLocked(j), nil
	}
	j.canceled = true
	if j.state == JobQueued && m.sched.cancel(id) {
		// Still queued: finish it here. A job the scheduler no longer
		// holds is mid-dispatch; the executor sees the flag and
		// finishes it instead.
		m.finishLocked(j, JobCanceled, "", 0)
	} else if j.stopRun != nil {
		j.stopRun(context.Canceled)
	}
	return m.statusLocked(j), nil
}

// Status returns a job's snapshot.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNoJob
	}
	return m.statusLocked(j), nil
}

// List returns every job in creation order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Subscribe attaches a drop-oldest event consumer to a job's stream,
// replaying everything after sinceSeq first. The caller must call
// Unsubscribe when done.
func (m *Manager) Subscribe(id string, sinceSeq int64, capacity int) (*subscriber, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNoJob
	}
	return j.hub.subscribe(sinceSeq, capacity), nil
}

// Unsubscribe detaches a Subscribe consumer.
func (m *Manager) Unsubscribe(id string, sub *subscriber) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		j.hub.unsubscribe(sub)
	}
}

// MaskPath and ShotsPath locate a job's output artifacts.
func (m *Manager) MaskPath(id string) string  { return filepath.Join(m.jobDir(id), "mask.pgm") }
func (m *Manager) ShotsPath(id string) string { return filepath.Join(m.jobDir(id), "shots.csv") }

// QueueDepth reports the number of queued (not yet dispatched) jobs.
func (m *Manager) QueueDepth() int { return m.sched.depth() }

func (m *Manager) jobDir(id string) string    { return filepath.Join(m.dataDir, "jobs", id) }
func (m *Manager) eventPath(id string) string { return filepath.Join(m.jobDir(id), "events.log") }

// executor is one slot of the run pool: dequeue, run, repeat.
func (m *Manager) executor() {
	defer m.wg.Done()
	for {
		sj, err := m.sched.next(m.ctx)
		if err != nil {
			return
		}
		m.runJob(sj.id)
	}
}

// runJob drives one dispatched job through RunSpec and records the
// outcome. Daemon shutdown mid-run deliberately records nothing: the
// journal still says running, which is exactly what makes the next
// daemon requeue and resume it.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	if j.canceled {
		m.finishLocked(j, JobCanceled, "", 0)
		m.mu.Unlock()
		return
	}
	now := m.now()
	if dl := j.dispatchDeadline(); !dl.IsZero() && !now.Before(dl) {
		// The deadline or queue TTL expired while the job waited;
		// dispatch merely raced the monitor sweep. Same terminal state
		// either way.
		m.finishLocked(j, JobDeadline, deadlineMsg(j, dl), 0)
		m.mu.Unlock()
		return
	}
	ctx, stop := context.WithCancelCause(m.ctx)
	runCtx := ctx
	if !j.deadlineAt.IsZero() {
		var cancelDL context.CancelFunc
		runCtx, cancelDL = context.WithDeadlineCause(ctx, j.deadlineAt, errDeadlineCause)
		defer cancelDL()
	}
	j.state = JobRunning
	j.stopRun = stop
	j.lastEv.Store(now.UnixNano())
	// A job whose state transitions cannot be journaled must not run:
	// fail it cleanly before any work starts. finishLocked's own writes
	// are best-effort against the same (likely poisoned) journals.
	err := m.appendRecord(jobRecord{ID: id, State: JobRunning, Time: now})
	if err != nil {
		err = fmt.Errorf("job journal: %w", err)
	} else {
		// May ride the first tile's batch: the record above is synced.
		err = j.hub.post(JobEvent{Kind: "state", State: string(JobRunning)})
	}
	if err != nil {
		j.stopRun = nil
		stop(nil)
		m.finishLocked(j, JobFailed, err.Error(), 0)
		m.mu.Unlock()
		return
	}
	spec, h := j.spec, j.hub
	m.mu.Unlock()
	defer stop(nil)

	res, err := m.execute(runCtx, j, spec, h)

	// cause is the first cancellation that hit the run — it, not the
	// generic context error the flow returned, types the terminal state.
	cause := context.Cause(runCtx)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.stopRun = nil
	switch {
	case err == nil:
		m.finishLocked(j, JobDone, "", len(res.Shots))
	case j.canceled:
		m.finishLocked(j, JobCanceled, "", 0)
	case errors.Is(cause, errDeadlineCause):
		m.finishLocked(j, JobDeadline, deadlineMsg(j, j.deadlineAt), 0)
	case errors.Is(cause, errWedgeCause):
		m.finishLocked(j, JobFailed, fmt.Sprintf("wedged: no events for %s", m.wedgeTimeout), 0)
	case errors.Is(cause, errShedCause):
		m.finishLocked(j, JobFailed, "shed: canceled under memory pressure (resubmit to resume from checkpoint)", 0)
	case m.ctx.Err() != nil:
		// Shutdown: leave the journal saying running so the job resumes.
		j.state = JobQueued
	default:
		m.finishLocked(j, JobFailed, err.Error(), 0)
	}
}

// deadlineMsg renders the typed deadline_exceeded error string.
func deadlineMsg(j *job, dl time.Time) string {
	if j.spec.DeadlineMS > 0 && (j.ttlAt.IsZero() || !j.deadlineAt.After(dl)) {
		return fmt.Sprintf("deadline %dms exceeded (checkpoint preserved)", j.spec.DeadlineMS)
	}
	return "queue TTL exceeded (checkpoint preserved)"
}

// execute runs the spec with the daemon's plumbing: per-job paths and
// a flow event bridge into the hub. The bridge posts, and a post error
// means the event journal is dead (the hub is poisoned — every later
// publish fails too), so the run is canceled immediately and the hub's
// error, not the resulting context cancellation, is returned.
func (m *Manager) execute(ctx context.Context, j *job, spec *JobSpec, h *hub) (*flow.Result, error) {
	id := j.id
	l, err := spec.ResolveLayout(m.layoutRoot)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pub := func(ev JobEvent) {
		j.lastEv.Store(m.now().UnixNano()) // feeds the wedge watchdog
		if h.post(ev) != nil {
			cancel()
		}
		// Yield, or CPU-bound lanes keep every P while a committer back
		// from its fsync waits to release (first tile seen 5 → 7 ms).
		runtime.Gosched()
	}
	dir := m.jobDir(id)
	opts := RunOpts{
		FS:         m.fsys,
		Cache:      m.cache,
		Checkpoint: filepath.Join(dir, "flow.ckpt"),
		MaskPath:   m.MaskPath(id),
		ShotsPath:  m.ShotsPath(id),
		Events: func(ev flow.Event) {
			switch ev.Kind {
			case flow.EventBeat:
				pub(JobEvent{Kind: "beat", Tile: ev.Tile, Iter: ev.Iter, Loss: ev.Loss})
			case flow.EventTile:
				pub(JobEvent{
					Kind: "tile", Tile: ev.Tile, Shots: ev.Stat.Shots,
					Resumed: ev.Stat.Resumed, CacheHit: ev.Stat.CacheHit,
					Path: string(ev.Stat.Path),
				})
			}
		},
	}
	res, err := m.runSpec(ctx, l, spec, opts)
	if errors.Is(err, checkpoint.ErrHeaderMismatch) {
		// The spec in jobs.log is the job; flow.ckpt only derives from it. A
		// journal this build cannot resume — written under another numerics
		// version, say — goes aside, and the job runs again from tile 0.
		if err = m.fsys.Rename(opts.Checkpoint, opts.Checkpoint+".stale"); err == nil {
			res, err = m.runSpec(ctx, l, spec, opts)
		}
	}
	if herr := h.failure(); herr != nil {
		return res, herr
	}
	return res, err
}

// finishLocked moves a job to a terminal state: journal record, final
// state event, event journal released. Callers hold m.mu.
//
// Storage failures here are counted, not fatal — the job is ending
// regardless. The record goes first: the stream must never claim a
// terminal state jobs.log does not have. If the record fails, no
// terminal event is published at all (jobs.log still says running, so
// the next daemon requeues and re-runs the job from its checkpoint)
// and closing the hub ends every subscriber's stream instead. If only
// the event fails, recovery synthesizes it from the durable record.
func (m *Manager) finishLocked(j *job, state JobState, errMsg string, shots int) {
	j.state = state
	j.errMsg = errMsg
	j.shots = shots
	m.gov.release(j.id)
	if state == JobDeadline {
		m.gov.mu.Lock()
		m.gov.expired++
		m.gov.mu.Unlock()
	}
	if err := m.appendRecord(jobRecord{ID: j.id, State: state, Error: errMsg, Shots: shots, Time: m.now()}); err == nil {
		if _, err := j.hub.publish(JobEvent{Kind: "state", State: string(state), Error: errMsg, Shots: shots}); err != nil {
			m.eventErrs.Add(1)
		}
	}
	j.hub.close()
}

// statusLocked snapshots a job. Callers hold m.mu.
func (m *Manager) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Tenant: j.spec.Tenant, Priority: j.spec.Priority,
		Grid: j.spec.GridN, Error: j.errMsg, Shots: j.shots, LastSeq: j.hub.lastSeq(),
		CostBytes: j.cost.PeakBytes,
	}
	if dl := j.dispatchDeadline(); !dl.IsZero() {
		st.DeadlineUnixMS = dl.UnixMilli()
	}
	return st
}

// Pulse runs one governor monitor cycle: sample the heap against the
// watermarks (acting on any ladder transition), expire queued jobs
// whose deadline or TTL passed, and kill wedged runs. The daemon's
// monitor goroutine calls it on a ticker; tests call it directly.
func (m *Manager) Pulse() {
	heap := m.gov.readHeap()
	from, to, changed := m.gov.observe(heap)
	m.mu.Lock()
	defer m.mu.Unlock()
	if changed {
		m.ladderLocked(from, to, heap)
	} else if to == GovShed {
		// Pressure held through another pulse at the top rung: shed
		// one more job per pulse until the heap recedes or no
		// candidates remain.
		m.shedLocked()
	}
	m.sweepDeadlinesLocked()
	m.sweepWedgesLocked()
}

// ladderLocked applies one degradation-ladder transition's side
// effects and announces it on every live job stream (kind "governor",
// journaled like any other event, so replays reproduce it).
func (m *Manager) ladderLocked(from, to GovLevel, heap int64) {
	if m.cache != nil {
		switch {
		case from == GovNormal && to >= GovShrink:
			// First rung: shrink the window cache's memory tier to a
			// quarter so the allocator gets room before anything
			// client-visible happens.
			e, b := m.cacheEntries0/4, m.cacheBytes0/4
			if e < 1 {
				e = 1
			}
			if b < 1 {
				b = 1
			}
			m.cache.Resize(e, b)
		case to == GovNormal && from >= GovShrink:
			m.cache.Resize(m.cacheEntries0, m.cacheBytes0)
		}
	}
	if to == GovShed {
		m.shedLocked()
	}
	ev := JobEvent{Kind: "governor", State: to.String(), From: from.String(), Heap: heap}
	for _, j := range m.jobs {
		if j.state.terminal() {
			continue
		}
		if _, err := j.hub.publish(ev); err != nil {
			m.eventErrs.Add(1)
		}
	}
}

// shedLocked cancels the youngest (highest-ID) running job whose
// admitted cost exceeds its fair share of the budget. Jobs within
// their share are never shed — pressure they did not cause is not
// their fault — so a pulse may shed nothing.
func (m *Manager) shedLocked() {
	share := m.gov.budget / int64(m.maxActive)
	var victim *job
	for _, j := range m.jobs {
		if j.state != JobRunning || j.stopRun == nil || j.cost.PeakBytes <= share {
			continue
		}
		if victim == nil || j.id > victim.id {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	victim.stopRun(errShedCause)
	m.gov.mu.Lock()
	m.gov.sheds++
	m.gov.mu.Unlock()
}

// sweepDeadlinesLocked expires queued jobs whose deadline or queue TTL
// passed. Running jobs are handled by their run context's deadline.
func (m *Manager) sweepDeadlinesLocked() {
	now := m.now()
	for _, j := range m.jobs {
		if j.state != JobQueued {
			continue
		}
		dl := j.dispatchDeadline()
		if dl.IsZero() || now.Before(dl) {
			continue
		}
		if m.sched.cancel(j.id) {
			m.finishLocked(j, JobDeadline, deadlineMsg(j, dl), 0)
		}
		// Not in the queue = mid-dispatch; runJob's own deadline check
		// finishes it.
	}
}

// sweepWedgesLocked kills running jobs that have published nothing for
// longer than the wedge timeout. The flow's per-tile stall detector
// watches iterations inside one engine call; this watchdog watches the
// job's entire event stream, so a run wedged outside any engine
// (deadlocked worker pool, stuck I/O) still dies typed.
func (m *Manager) sweepWedgesLocked() {
	if m.wedgeTimeout <= 0 {
		return
	}
	now := m.now().UnixNano()
	for _, j := range m.jobs {
		if j.state != JobRunning || j.wedged || j.stopRun == nil {
			continue
		}
		last := j.lastEv.Load()
		if last == 0 || now-last < int64(m.wedgeTimeout) {
			continue
		}
		j.wedged = true
		j.stopRun(errWedgeCause)
		m.gov.mu.Lock()
		m.gov.wedges++
		m.gov.mu.Unlock()
	}
}

// GovernorHealth reports the governor's /healthz section.
func (m *Manager) GovernorHealth() GovernorHealth { return m.gov.health() }

// QueueHealth reports the scheduler's /healthz section.
func (m *Manager) QueueHealth() QueueHealth { return m.sched.health() }

// appendRecord journals one job-state transition durably, returning
// the append or fsync error; either poisons jobs.log (see
// internal/checkpoint), so after one failure every later call fails
// too. Callers hold m.mu (or are inside NewManager, before the
// manager escapes).
func (m *Manager) appendRecord(rec jobRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		panic("server: marshal jobRecord failed: " + err.Error())
	}
	if m.journal == nil {
		return nil
	}
	err = m.journal.Append(payload)
	if err == nil {
		err = m.journal.Sync()
	}
	if err != nil {
		m.recordErrs.Add(1)
	}
	return err
}
