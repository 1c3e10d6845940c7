package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
	// anchored at the admission time its seq-1 event carries so it
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
// recovers existing state from DataDir at construction, one job
// directory at a time: each events.log header names the job and holds
// its spec, and its newest state event holds its state. Terminal jobs
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
	eventErrs   atomic.Int64 // terminal events lost to a dead event journal
	synthEvents int64        // terminal events recovery took from an older daemon's jobs.log
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

// ErrNoJob is returned for operations on an unknown job ID.
var ErrNoJob = errors.New("server: no such job")

// NewManager opens (or creates) the data directory and rebuilds the
// job table from the job directories in it.
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
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dataDir:      cfg.DataDir,
		layoutRoot:   cfg.LayoutRoot,
		maxActive:    cfg.MaxActive,
		now:          cfg.Now,
		fsys:         fsys,
		jobs:         map[string]*job{},
		sched:        newScheduler(cfg.QueueCap),
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
	if err := m.recover(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// recover rebuilds the job table from jobs/ in ID order. A job's spec
// is its events.log header, its state, error and shots are its newest
// state event, and its admission time rides its seq-1 event. A directory
// with no durable queued event is a submit the crash cut short: skipped,
// its ID still used up. Every queued or running job is requeued.
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
				j.state, j.errMsg, j.shots = JobState(ev.State), ev.Error, ev.Shots
				break
			}
		}
		rec := legacy[id]
		if rec != nil && rec.State.terminal() && !j.state.terminal() {
			// An older daemon journaled the terminal record and lost the
			// event (a crash, or a dead event journal, between the two).
			// Synthesize it from the record, deterministically — same
			// record, same history length, same seq — so every recovery
			// produces the identical event and Last-Event-ID replays stay
			// exact.
			j.state, j.errMsg, j.shots = rec.State, rec.Error, rec.Shots
			evs = append(evs, JobEvent{
				Seq: int64(len(evs)) + 1, Kind: "state",
				State: string(rec.State), Error: rec.Error, Shots: rec.Shots,
			})
			m.synthEvents++
		}
		if j.state.terminal() {
			// Finished jobs need no new events: no append handle.
			j.hub = newHub(nil, evs)
		} else {
			// The job was queued or mid-run when the daemon died: reopen
			// its event journal so seq numbering continues, tell the
			// stream it is queued again, and requeue it. The flow
			// checkpoint makes the re-run byte-identical.
			h, err := newHubFS(m.fsys, m.eventPath(id), id, spec)
			if err != nil {
				return fmt.Errorf("server: job %s: %w", id, err)
			}
			j.hub = h
			j.state = JobQueued
			_, err = h.publish(JobEvent{Kind: "state", State: string(JobQueued)})
			if err == nil {
				err = m.sched.enqueue(id, spec.Tenant, spec.Priority)
			}
			if err != nil {
				h.close()
				return fmt.Errorf("server: requeue %s: %w", id, err)
			}
			// Re-anchor deadlines at the admission time, which requeues
			// never move: an older daemon's job has it in jobs.log, and
			// one with no record there is admitted now. The governor
			// reservation bypasses admission (force): a job admitted by a
			// previous daemon life must not vanish because the budget
			// shrank.
			admitted := m.now()
			if evs[0].Admitted != 0 {
				admitted = time.Unix(0, evs[0].Admitted)
			} else if rec != nil {
				admitted = rec.Time
			}
			m.anchorDeadlines(j, admitted)
			rects := 0
			if l, err := spec.ResolveLayout(m.layoutRoot); err == nil {
				rects = len(l.Rects)
			}
			j.cost = EstimateCost(spec, rects)
			m.gov.force(id, j.cost)
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	return nil
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
// interrupted without a terminal event — their journals still say
// running, so a later Manager requeues and resumes them.
func (m *Manager) Stop() {
	m.cancel()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.hub.close()
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
	// Storage before visibility: the job exists, and a client can see
	// it, only once its queued event and both directory entries above it
	// are durable. On failure the submission is rejected whole —
	// queue slot released, journal handle closed, its directory removed
	// (best-effort). The ID is used up once the directory exists, so no
	// later job can meet a journal a rejected one left behind.
	var h *hub
	reject := func(err error) (JobStatus, error) {
		m.sched.cancel(id)
		m.gov.release(id)
		if h != nil {
			h.close()
		}
		m.fsys.Remove(m.eventPath(id))
		m.fsys.Remove(m.jobDir(id))
		return JobStatus{}, err
	}
	if err := m.fsys.MkdirAll(m.jobDir(id), 0o755); err != nil {
		return reject(err)
	}
	m.nextID++
	if h, err = newHubFS(m.fsys, m.eventPath(id), id, spec); err != nil {
		return reject(err)
	}
	admitted := m.now()
	_, err = h.publish(JobEvent{Kind: "state", State: string(JobQueued), Admitted: admitted.UnixNano()})
	if err == nil {
		err = m.fsys.SyncDir(m.jobDir(id))
	}
	if err == nil {
		err = m.fsys.SyncDir(filepath.Dir(m.jobDir(id)))
	}
	if err != nil {
		return reject(err)
	}
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
// outcome. Daemon shutdown mid-run deliberately journals nothing: the
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
	// May ride the first tile's batch. A job whose running event cannot
	// be journaled must not run: fail it cleanly before any work starts.
	if err := j.hub.post(JobEvent{Kind: "state", State: string(JobRunning)}); err != nil {
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
		// The spec in the events.log header is the job; flow.ckpt only
		// derives from it. A journal this build cannot resume — written
		// under another numerics version, say — goes aside, and the job
		// runs again from tile 0.
		if err = m.fsys.Rename(opts.Checkpoint, opts.Checkpoint+".stale"); err == nil {
			res, err = m.runSpec(ctx, l, spec, opts)
		}
	}
	if herr := h.failure(); herr != nil {
		return res, herr
	}
	return res, err
}

// finishLocked moves a job to a terminal state: final state event
// journaled, event journal released. Callers hold m.mu.
//
// A storage failure here is counted, not fatal — the job is ending
// regardless. A terminal event that cannot be journaled reaches no
// subscriber: closing the hub ends every stream without one, and the
// journal still says running, so the next daemon requeues the job and
// resumes it from its checkpoint.
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
	if _, err := j.hub.publish(JobEvent{Kind: "state", State: string(state), Error: errMsg, Shots: shots}); err != nil {
		m.eventErrs.Add(1)
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
