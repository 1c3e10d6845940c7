package server

import (
	"context"
	"errors"
	"fmt"
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

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Tenant   string   `json:"tenant"`
	Priority int      `json:"priority"`
	Grid     int      `json:"grid"` // simulation grid edge (mask dimensions)
	Error    string   `json:"error,omitempty"`
	Shots    int      `json:"shots,omitempty"`
	// TravelNM is the beam travel of the written shot order (done only).
	TravelNM float64 `json:"travel_nm,omitempty"`
	LastSeq  int64   `json:"last_seq"` // newest published event seq
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
	travel   float64
	hub      *hub
	canceled bool // cancel requested (may still be dispatching)
	stopRun  context.CancelCauseFunc
	cost     Cost
	// deadlineAt is the job's deadline (zero = none); expireAt, the
	// sooner of it and the queue TTL, ends a job not yet running. Both
	// anchor at the admission time seq 1 carries, surviving restarts.
	deadlineAt time.Time
	expireAt   time.Time
	// lastEv is the unix-nano time of the newest event, for the wedge
	// watchdog: atomic, so beats never take the manager lock.
	lastEv atomic.Int64
}

// Manager owns the job table, the scheduler, and the executor pool.
// NewManager rebuilds the table from DataDir (recovery.go); the ladder,
// shedding and the sweeps act on it under pressure (pressure.go).
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
	// The cache's full byte budget, saved so the shrink rung can restore it.
	cacheBytes0 int64
	// runSpec is RunSpec: the executor seam tests swap for stand-ins
	// that block, stall or finish without compute.
	runSpec func(ctx context.Context, l *layout.Layout, spec *JobSpec, opts RunOpts) (*flow.Result, error)

	// Storage degradation counters, surfaced by StorageHealth.
	eventErrs   atomic.Int64 // terminal events lost to a dead event journal
	synthEvents int64        // terminal events recovery took from an older daemon's jobs.log
}

// ErrNoJob is returned for operations on an unknown job ID.
var ErrNoJob = errors.New("server: no such job")

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
// missing or malformed file, prices the job, and queues it through
// queueLocked.
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
	j := &job{spec: spec, cost: EstimateCost(spec, len(l.Rects))}
	m.mu.Lock()
	defer m.mu.Unlock()
	j.id = fmt.Sprintf("job-%04d", m.nextID)
	if err := m.queueLocked(j, m.now(), true); err != nil {
		return JobStatus{}, err
	}
	return m.statusLocked(j), nil
}

// queueLocked makes j a queued job, for Submit (fresh) and recovery's
// requeue: cost reserved — admitted against the budget before the queue
// cap is checked, so the cost gate always rules first, or forced through
// for a job a previous daemon life admitted — queue slot taken, event
// journal open with a durable queued event, deadlines anchored, j in the
// table. Storage before visibility: a fresh job exists only once seq 1
// (carrying the admission time) and both directory entries above it are
// fsynced. On error every step is undone and a fresh job's directory
// removed (best-effort); its ID stays used, so no later job meets it.
func (m *Manager) queueLocked(j *job, admitted time.Time, fresh bool) error {
	if !fresh {
		m.gov.force(j.id, j.cost)
	} else if err := m.gov.admit(j.id, j.cost); err != nil {
		return err
	}
	if err := m.sched.enqueue(j.id, j.spec.Tenant, j.spec.Priority); err != nil {
		m.gov.release(j.id)
		return err
	}
	ev := JobEvent{Kind: "state", State: string(JobQueued)}
	var err error
	if fresh {
		ev.Admitted = admitted.UnixNano()
		if err = m.fsys.MkdirAll(m.jobDir(j.id), 0o755); err == nil {
			m.nextID++
		}
	}
	if err == nil {
		j.hub, err = newHubFS(m.fsys, m.eventPath(j.id), j.id, j.spec)
	}
	if err == nil {
		_, err = j.hub.publish(ev)
	}
	if err == nil && fresh {
		if err = m.fsys.SyncDir(m.jobDir(j.id)); err == nil {
			err = m.fsys.SyncDir(filepath.Dir(m.jobDir(j.id)))
		}
	}
	if err != nil {
		m.sched.cancel(j.id)
		m.gov.release(j.id)
		if j.hub != nil {
			j.hub.close()
		}
		if fresh {
			m.fsys.Remove(m.eventPath(j.id))
			m.fsys.Remove(m.jobDir(j.id))
		}
		return err
	}
	j.state = JobQueued
	m.anchorDeadlines(j, admitted)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return nil
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
		// holds is mid-dispatch; runJob sees the flag and finishes it.
		m.finishLocked(j, ending{state: JobCanceled})
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
// outcome runEnding gives it.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	now := m.now()
	e, over := j.expired(now)
	if j.canceled {
		e, over = ending{state: JobCanceled}, true
	} else if !over {
		// May ride the first tile's batch. A job whose running event
		// cannot be journaled must not run: it fails before any work.
		if err := j.hub.post(JobEvent{Kind: "state", State: string(JobRunning)}); err != nil {
			e, over = ending{state: JobFailed, msg: err.Error()}, true
		}
	}
	if over {
		m.finishLocked(j, e)
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
	spec, h := j.spec, j.hub
	m.mu.Unlock()
	defer stop(nil)

	res, err := m.execute(runCtx, j, spec, h)
	cause := context.Cause(runCtx)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.stopRun = nil
	if e := m.runEnding(j, res, err, cause, m.ctx.Err() != nil); e.state != JobQueued {
		m.finishLocked(j, e)
	} else {
		// Shutdown: the journal still says running, which is exactly
		// what makes the next daemon requeue and resume the job.
		j.state = JobQueued
	}
}

// ending is a job's terminal state, the error and shots its state event
// carries, and the governor counter it adds one to.
type ending struct {
	state  JobState
	msg    string
	shots  int
	travel float64
	count  govCounter
}

// runEnding is the one map from a finished run to its ending. The cause
// (the first stop that hit the run) and j.canceled (a DELETE) are read
// before err: a DELETE, deadline or shed ends the job typed even when
// the tail, which cannot hear a stop, went on to finish. A wedge or a
// daemon shutdown ends only what it interrupted, so a finished run is
// done and a wedge counts only when it ended the run. A shutdown's
// ending is JobQueued: nothing is journaled.
func (m *Manager) runEnding(j *job, res *flow.Result, err, cause error, shutdown bool) ending {
	switch {
	case j.canceled:
		return ending{state: JobCanceled}
	case errors.Is(cause, errDeadlineCause):
		return j.deadlineEnding(j.deadlineAt)
	case errors.Is(cause, errShedCause):
		return ending{state: JobFailed, msg: "shed: canceled under memory pressure (resubmit to resume from checkpoint)", count: shedCounter}
	case err == nil:
		return ending{state: JobDone, shots: len(res.Shots), travel: res.TravelNM}
	case errors.Is(cause, errWedgeCause):
		return ending{state: JobFailed, msg: fmt.Sprintf("wedged: no events for %s", m.wedgeTimeout), count: wedgeCounter}
	case shutdown:
		return ending{state: JobQueued}
	default:
		return ending{state: JobFailed, msg: err.Error()}
	}
}

// execute runs the spec with the daemon's plumbing: per-job paths and
// a flow event bridge into the hub. A bridged event's error means the
// event journal is dead (the hub is poisoned — every later publish
// fails too), so the run is canceled immediately and the hub's error,
// not the resulting context cancellation, is returned.
func (m *Manager) execute(ctx context.Context, j *job, spec *JobSpec, h *hub) (*flow.Result, error) {
	l, err := spec.ResolveLayout(m.layoutRoot)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts := RunOpts{
		FS:         m.fsys,
		Cache:      m.cache,
		Checkpoint: filepath.Join(m.jobDir(j.id), "flow.ckpt"),
		MaskPath:   m.MaskPath(j.id),
		ShotsPath:  m.ShotsPath(j.id),
		Events: bridge(h, func(err error) {
			j.lastEv.Store(m.now().UnixNano()) // feeds the wedge watchdog
			if err != nil {
				cancel()
			}
		}),
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

// bridge is a run's flow event sink on h; done gets each event's
// journal error. Beats and every tile after the first are posted to ride
// the hub's next group commit, with no yield per event. The run's first
// tile is a milestone like queued: published, durable and released
// before its lane moves on, then one yield lets waiting streams deliver it.
func bridge(h *hub, done func(error)) flow.EventSink {
	var first atomic.Bool
	return func(ev flow.Event) {
		var err error
		switch ev.Kind {
		case flow.EventBeat:
			err = h.post(JobEvent{Kind: "beat", Tile: ev.Tile, Iter: ev.Iter, Loss: ev.Loss})
		case flow.EventTile:
			je := JobEvent{Kind: "tile", Tile: ev.Tile, Shots: ev.Stat.Shots,
				Resumed: ev.Stat.Resumed, CacheHit: ev.Stat.CacheHit, Path: ev.Stat.Path}
			if !first.CompareAndSwap(false, true) {
				err = h.post(je)
			} else if _, err = h.publish(je); err == nil {
				runtime.Gosched()
			}
		}
		done(err)
	}
}

// finishLocked moves a job to its ending: released and counted by the
// governor, its state event journaled, its journal closed. Callers hold
// m.mu. A storage failure here is counted, not fatal: a terminal event
// that cannot be journaled reaches no stream (closing the hub ends
// every stream without one), and the journal still says running, so
// the next daemon requeues the job and resumes it from its checkpoint.
func (m *Manager) finishLocked(j *job, e ending) {
	j.state, j.errMsg, j.shots, j.travel = e.state, e.msg, e.shots, e.travel
	m.gov.end(j.id, e.count)
	if _, err := j.hub.publish(JobEvent{Kind: "state", State: string(e.state), Error: e.msg, Shots: e.shots, TravelNM: e.travel}); err != nil {
		m.eventErrs.Add(1)
	}
	j.hub.close()
}

// statusLocked snapshots a job. Callers hold m.mu.
func (m *Manager) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Tenant: j.spec.Tenant, Priority: j.spec.Priority,
		Grid: j.spec.GridN, Error: j.errMsg, Shots: j.shots, TravelNM: j.travel, LastSeq: j.hub.lastSeq(),
		CostBytes: j.cost.PeakBytes,
	}
	if !j.expireAt.IsZero() {
		st.DeadlineUnixMS = j.expireAt.UnixMilli()
	}
	return st
}
