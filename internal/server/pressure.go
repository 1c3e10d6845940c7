// Pressure: what the daemon does when time or memory runs out — the
// pulse, its ladder, shedding, the deadline and wedge sweeps (DESIGN §9).
package server

import (
	"fmt"
	"time"
)

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
			// First rung: shrink the cache's memory tier to a quarter so
			// the allocator gets room before anything client-visible.
			m.cache.Resize(max(m.cacheBytes0/4, 1))
		case to == GovNormal && from >= GovShrink:
			m.cache.Resize(m.cacheBytes0)
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
	share := m.gov.fairShare(m.maxActive)
	var victim *job
	for _, j := range m.jobs {
		if j.state != JobRunning || j.stopRun == nil || j.cost.PeakBytes <= share {
			continue
		}
		if victim == nil || j.id > victim.id {
			victim = j
		}
	}
	if victim != nil {
		victim.stopRun(errShedCause)
	}
}

// sweepDeadlinesLocked expires queued jobs whose deadline or queue TTL
// passed. Running jobs are handled by their run context's deadline.
func (m *Manager) sweepDeadlinesLocked() {
	now := m.now()
	for _, j := range m.jobs {
		if j.state != JobQueued {
			continue
		}
		// Not in the queue = mid-dispatch; runJob asks the same
		// question and finishes it.
		if e, ok := j.expired(now); ok && m.sched.cancel(j.id) {
			m.finishLocked(j, e)
		}
	}
}

// sweepWedgesLocked kills running jobs that have published nothing for
// longer than the wedge timeout. The flow's per-tile stall detector
// watches iterations inside one engine call; this watchdog watches the
// job's entire event stream, so a run wedged outside any engine
// (deadlocked worker pool, stuck I/O) still dies typed. The wedge
// counts only if it ends the run (runEnding).
func (m *Manager) sweepWedgesLocked() {
	if m.wedgeTimeout <= 0 {
		return
	}
	now := m.now().UnixNano()
	for _, j := range m.jobs {
		if j.state != JobRunning || j.stopRun == nil {
			continue
		}
		if last := j.lastEv.Load(); last != 0 && now-last >= int64(m.wedgeTimeout) {
			j.stopRun(errWedgeCause)
		}
	}
}

// expired is the one deadline check for a job not yet running: it
// reports whether the job's deadline or queue TTL has passed at now,
// and the ending it gets. Dispatch and the queued sweep both ask it, so
// a job the TTL expired on while queued does not start just because
// dispatch raced the sweep.
func (j *job) expired(now time.Time) (ending, bool) {
	if j.expireAt.IsZero() || now.Before(j.expireAt) {
		return ending{}, false
	}
	return j.deadlineEnding(j.expireAt), true
}

// deadlineEnding is the ending of a job whose deadline dl passed, with
// the typed deadline_exceeded message: the per-job deadline's when dl
// is it, the queue TTL's otherwise.
func (j *job) deadlineEnding(dl time.Time) ending {
	msg := "queue TTL exceeded (checkpoint preserved)"
	if dl.Equal(j.deadlineAt) {
		msg = fmt.Sprintf("deadline %dms exceeded (checkpoint preserved)", j.spec.DeadlineMS)
	}
	return ending{state: JobDeadline, msg: msg, count: expiredCounter}
}

// GovernorHealth reports the governor's /healthz section.
func (m *Manager) GovernorHealth() GovernorHealth { return m.gov.health() }

// QueueHealth reports the scheduler's /healthz section.
func (m *Manager) QueueHealth() QueueHealth { return m.sched.health() }
