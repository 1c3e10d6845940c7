package flow

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/netpool"
	"cfaopc/internal/opt"
	"cfaopc/internal/procpool"
)

// maxProcBackoff caps the exponential respawn/reconnect delay so a
// long crash loop stays responsive enough to reach the circuit breaker
// quickly.
const maxProcBackoff = 2 * time.Second

// wlink is the supervisor's view of one worker transport: tasks in via
// Send, everything out — including death — via the Events stream.
// procpool.Worker (a subprocess on stdin/stdout pipes) and netpool.Conn
// (a TCP session to a listening host) both satisfy it, which is what
// lets one slot loop supervise both: respawn and reconnect are the same
// move, and the silence watchdog covers a wedged process and a dead
// link alike.
type wlink interface {
	Send(*procpool.Task) error
	Events() <-chan procpool.Event
	Kill()
	Close()
}

// procSlot is one supervised worker slot: a lane of the proc- or
// remote-mode pool that owns at most one worker link at a time. The
// slot — not the process or the connection — is the unit of
// scheduling: a tile stays pinned to its slot across worker crashes,
// respawns and reconnects, and when the slot's breaker opens it
// degrades to the shared in-process simulator, so the run always
// completes no matter how hostile the worker binary or the network is.
type procSlot struct {
	env *runEnv
	id  int
	// host is "" for a subprocess slot and the remote address for a TCP
	// slot; it feeds TileStat.Host/Proc provenance.
	host string

	// connect establishes a fresh link: spawn a subprocess, or dial and
	// handshake a remote host.
	connect func(ctx context.Context) (wlink, error)
	silence time.Duration   // watchdog bound on inter-frame gaps
	backoff netpool.Backoff // reconnect/respawn delay schedule
	// breaker is the slot's circuit breaker. Subprocess slots run it
	// terminal (no cooldown — a broken slot stays in-process for the
	// rest of the run, the PR 5 contract); remote slots give it a
	// cooldown so a partitioned host is probed again and can heal.
	breaker netpool.Breaker
	crashes *atomic.Int64 // run-wide failed-dispatch total for this transport
	broken  *atomic.Int64 // run-wide breaker-open episodes for this transport

	w wlink

	// resume is the freshest snapshot observed for the in-flight tile
	// (from the journal at first dispatch, then from Partial frames), so
	// a redispatch warm-starts instead of recomputing — and, because the
	// optimizer state rides along, replays the exact same trajectory,
	// even when the replacement worker is a different host.
	resume *procpool.PartialState
}

// run is the slot loop shared by both transports: consume tiles from
// jobCh and complete each through dispatch → reconnect → circuit-break,
// mirroring the in-process worker loop's contract (complete is called
// exactly once per received tile unless the run is canceled).
func (s *procSlot) run(ctx context.Context, jobCh <-chan tileJob, complete func(tileJob, tileOut)) {
	defer s.shutdown()
	for j := range jobCh {
		if ctx.Err() != nil {
			continue // drain without work so the feeder never blocks
		}
		complete(j, s.runTileProc(ctx, j))
	}
}

// runProcSlot is the subprocess-transport slot: spawn via WorkerCmd,
// terminal breaker, the exact PR 5 semantics.
func (env *runEnv) runProcSlot(ctx context.Context, id int, jobCh <-chan tileJob, complete func(tileJob, tileOut)) {
	cfg := env.cfg
	s := &procSlot{
		env: env,
		id:  id,
		connect: func(context.Context) (wlink, error) {
			w, err := procpool.StartHello(cfg.WorkerCmd(), cfg.procSilence())
			if err != nil {
				return nil, err
			}
			return w, nil
		},
		silence: cfg.procSilence(),
		backoff: netpool.Backoff{
			Base: cfg.procBackoff(), Max: maxProcBackoff,
			Rng: rand.New(rand.NewSource(int64(id) + 1)), // per-slot seed: deterministic tests
		},
		breaker: netpool.Breaker{Limit: cfg.procCrashLimit()},
		crashes: &env.procCrashes,
		broken:  &env.procBroken,
	}
	s.run(ctx, jobCh, complete)
}

// runTileProc drives one tile to completion through the slot's link:
// rasterize supervisor-side, dispatch until a reply lands or the
// breaker opens, then fall back to the shared in-process degradation
// ladder. Every failed dispatch is counted on the tile and the run.
func (s *procSlot) runTileProc(ctx context.Context, j tileJob) (out tileOut) {
	env := s.env
	cfg := env.cfg
	start := time.Now()
	out = tileOut{stat: TileStat{Index: j.index, CX: j.cx, CY: j.cy, Core: j.core, Window: j.window}}
	defer func() { out.stat.Wall = time.Since(start) }() // out is the named result
	if j.skip {
		return out
	}
	ox := j.cx - cfg.HaloPx
	oy := j.cy - cfg.HaloPx
	target, occupied := env.ix.Window(ox, oy, j.window, j.window)
	out.stat.Occupied = occupied
	out.stat.RasterWall = time.Since(start)
	if !occupied {
		return out
	}
	if env.tryCache(j, target, &out) {
		return out
	}

	// Seed the resume state from the journal replay (if the tile was
	// half-finished when the previous run died).
	s.resume = nil
	if p, ok := env.partials[j.index]; ok {
		s.resume = &procpool.PartialState{
			Attempt: p.Attempt, Iter: p.Iter, Loss: p.Loss,
			Params: p.Params, OptT: p.OptT, OptM: p.OptM, OptV: p.OptV,
		}
	}

	dispatch := 0
	for ctx.Err() == nil && s.breaker.Allow() {
		reply, ok := s.dispatch(ctx, j, target, dispatch)
		if ok {
			s.breaker.Success()
			out.stat.ProcCrashes = dispatch
			out.stat.Proc = s.host == ""
			out.stat.Host = s.host
			env.applyReply(j, target, reply, &out)
			env.storeCache(j, &out)
			return out
		}
		dispatch++
		s.crashes.Add(1)
		if s.breaker.Failure() {
			// The breaker opened: a new degradation episode. Terminal
			// for subprocess slots; remote slots re-probe after the
			// cooldown, but this tile (and every tile drawn while the
			// breaker is open) completes locally.
			s.killWorker()
			s.broken.Add(1)
		}
	}
	out.stat.ProcCrashes = dispatch
	if ctx.Err() != nil {
		return out
	}
	// Breaker open: the shared in-process simulator finishes the tile.
	// fbMu serializes slots on it; the output is identical to what a
	// healthy worker would have produced, because both run the same
	// ladder on the same target.
	env.fbMu.Lock()
	defer env.fbMu.Unlock()
	env.ladder(ctx, env.fbSims[j.window], j, target, &out)
	env.storeCache(j, &out)
	return out
}

// dispatch hands the tile to the slot's link — establishing or
// re-establishing one as needed — and awaits its reply. ok is false
// when the dispatch failed (connect error, worker death, link drop,
// silence kill, protocol garbage, or a worker-reported task error) and
// the tile must be redispatched or degraded.
func (s *procSlot) dispatch(ctx context.Context, j tileJob, target *grid.Real, dispatchN int) (*procpool.Reply, bool) {
	w, err := s.ensureWorker(ctx)
	if err != nil || w == nil {
		return nil, false
	}
	if err := w.Send(s.env.buildTask(j, target, dispatchN, s.resume)); err != nil {
		s.killWorker()
		return nil, false
	}
	return s.await(ctx, w, j)
}

// buildTask encodes one window as a procpool task. The quarantine
// bundle schema doubles as the wire protocol — the payload is exactly
// what a repro bundle holds, minus the attempt history a not-yet-run
// tile does not have — plus the redispatch counter (which process-fatal
// fault scripts key on) and the freshest snapshot to warm-start from.
func (env *runEnv) buildTask(j tileJob, target *grid.Real, dispatch int, resume *procpool.PartialState) *procpool.Task {
	cfg := env.cfg
	t := &procpool.Task{
		Bundle:   *env.buildBundle(j, target, nil),
		Dispatch: dispatch,
		Workers:  cfg.Workers,
		Resume:   resume,
	}
	if env.journal != nil {
		t.PartialEvery = cfg.PartialEvery
	}
	return t
}

// await consumes link events until a reply for j arrives, the link
// dies, or it goes silent past the slot's silence bound. Any frame —
// ping, beat, partial — counts as liveness; Partial frames are
// additionally journaled and retained for redispatch, exactly like an
// in-process snapshot, so a host that dies mid-tile hands its progress
// to the replacement.
func (s *procSlot) await(ctx context.Context, w wlink, j tileJob) (*procpool.Reply, bool) {
	env := s.env
	timer := time.NewTimer(s.silence)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			s.killWorker()
			return nil, false
		case <-timer.C:
			// Alive but mute beyond even its ping loop: a wedged process
			// or a stalled link. Kill and let the dispatch counter decide
			// reconnect vs breaker.
			s.killWorker()
			return nil, false
		case ev := <-w.Events():
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(s.silence)
			switch ev.Kind {
			case procpool.EvExit:
				s.w = nil
				return nil, false
			case procpool.EvPartial:
				if ev.Partial.Index == j.index {
					st := ev.Partial.State
					s.resume = &st
					if env.journal != nil && env.cfg.PartialEvery > 0 {
						env.appendPartial(j.index, st.Attempt, opt.Snapshot{
							Iter: st.Iter, Loss: st.Loss, Params: st.Params,
							OptT: st.OptT, OptM: st.OptM, OptV: st.OptV,
						})
					}
				}
			case procpool.EvBeat:
				// Forwarded optimizer heartbeat: liveness (the timer reset
				// above), and — when someone subscribed — progress, so the
				// event stream looks the same in every dispatch mode.
				if env.onBeat != nil && ev.Beat.Index == j.index {
					env.onBeat(ev.Beat.Index, ev.Beat.Iter, ev.Beat.Loss)
				}
			case procpool.EvReply:
				if ev.Reply.Index != j.index {
					// Protocol confusion (a stale reply for some other
					// tile): this link cannot be trusted with the tile.
					s.killWorker()
					return nil, false
				}
				if ev.Reply.Err != "" {
					// The worker is healthy but the task failed
					// deterministically (bad payload, engine setup).
					// Count it like a crash so the breaker bounds the
					// retries and the tile still completes in-process.
					return nil, false
				}
				return ev.Reply, true
			}
			// EvHello / EvPing: liveness only.
		}
	}
}

// applyReply folds a worker's reply into the tile's output, applying
// the same ownership filter, stat bookkeeping and quarantine policy as
// the in-process ladder — the supervisor stays the single authority on
// what enters the stitched result.
func (env *runEnv) applyReply(j tileJob, target *grid.Real, r *procpool.Reply, out *tileOut) {
	cfg := env.cfg
	ox := j.cx - cfg.HaloPx
	oy := j.cy - cfg.HaloPx
	var outcomes []AttemptOutcome
	for _, o := range r.Outcomes {
		outcomes = append(outcomes, AttemptOutcome{
			Attempt: o.Attempt, Engine: o.Engine, Err: o.Err,
			Iters: o.Iters, LastLoss: o.LastLoss, Stalled: o.Stalled,
		})
	}
	out.stat.Path = r.Path
	applyOutcomes(&out.stat, outcomes)
	switch r.Path {
	case PathPrimary, PathFallback:
		out.raw = r.Shots
		out.shots = ownedShots(r.Shots, ox, oy, j.cx, j.cy, j.core)
		out.stat.Shots = len(out.shots)
	case PathEmpty:
		env.saveQuarantine(j, target, outcomes, &out.stat)
	}
}

// ensureWorker returns the slot's live link, establishing one — after
// the failure-count-proportional backoff — when needed, and waiting for
// its Hello so a peer that is not a tile worker fails the dispatch
// instead of wedging it.
func (s *procSlot) ensureWorker(ctx context.Context) (wlink, error) {
	if s.w != nil {
		return s.w, nil
	}
	if !s.backoffWait(ctx) {
		return nil, ctx.Err()
	}
	w, err := s.connect(ctx)
	if err != nil {
		// A connect failure (missing binary, fork limits, dead or
		// partitioned host) is a failed dispatch, not a run failure: the
		// breaker degrades the slot and the run completes.
		return nil, err
	}
	timer := time.NewTimer(s.silence)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			w.Kill()
			return nil, ctx.Err()
		case <-timer.C:
			w.Kill()
			return nil, fmt.Errorf("flow: worker sent no hello")
		case ev := <-w.Events():
			switch ev.Kind {
			case procpool.EvHello:
				s.w = w
				return w, nil
			case procpool.EvExit:
				return nil, fmt.Errorf("flow: worker died before hello: %v", ev.Err)
			}
		}
	}
}

// backoffWait sleeps the exponential retry delay for the current
// consecutive-failure count (none after a clean dispatch), with jitter
// so a crash-looping fleet does not retry in lockstep. It reports
// false when ctx was canceled during the wait.
func (s *procSlot) backoffWait(ctx context.Context) bool {
	d := s.backoff.Next(s.breaker.Consecutive())
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// killWorker discards the slot's link immediately (SIGKILL / TCP
// reset-equivalent close).
func (s *procSlot) killWorker() {
	if s.w != nil {
		s.w.Kill()
		s.w = nil
	}
}

// shutdown ends the slot: a healthy link gets a graceful close (EOF →
// clean worker exit), anything else is already gone.
func (s *procSlot) shutdown() {
	if s.w != nil {
		s.w.Close()
		s.w = nil
	}
}
