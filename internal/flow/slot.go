package flow

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/netpool"
	"cfaopc/internal/procpool"
)

const (
	// linkSilence kills a session that delivers no frame — ping,
	// heartbeat, reply or handshake answer — for this long while one is
	// due: the cross-process analogue of StallTimeout, catching a wedged
	// process, a dead link and a stalled remote alike. It comfortably
	// exceeds the worker's ~100ms ping cadence.
	linkSilence = 10 * time.Second
	// linkBackoff is the base delay before a respawn or reconnect; it
	// doubles per consecutive failure with jitter, so a crash-looping
	// fleet does not retry in lockstep.
	linkBackoff = 50 * time.Millisecond
	// linkCrashLimit is how many consecutive failed dispatches open a
	// slot's circuit breaker.
	linkCrashLimit = 3
	// maxLinkBackoff caps the exponential respawn/reconnect delay so a
	// long crash loop stays responsive enough to reach the circuit
	// breaker quickly.
	maxLinkBackoff = 2 * time.Second
	// linkCooldown is how long a remote host's open breaker waits before
	// one probe dispatch is let through, so a partitioned host can
	// rejoin the run.
	linkCooldown = 5 * time.Second
)

// connector is how a run reaches its tile workers: one supervised slot
// per hosts entry, each dialing through dial. A subprocess is just
// another dial — it spawns Config.WorkerCmd and hands back the child's
// stdin/stdout — so its hosts entries are "" (TileStat.Host stays
// empty, TileStat.Proc is set) and its breaker is terminal: a local
// binary that crash-loops will not heal, a partitioned host may.
type connector struct {
	hosts    []string
	dial     func(ctx context.Context, addr string) (net.Conn, error)
	cooldown time.Duration // breaker open→half-open delay; 0 is terminal
}

// connector resolves the config's transport; nil runs tiles in-process.
func (cfg Config) connector(jobs int) *connector {
	switch {
	case cfg.ProcWorkers > 0:
		return &connector{
			hosts: make([]string, tileWorkerCount(cfg.ProcWorkers, jobs)),
			dial: func(context.Context, string) (net.Conn, error) {
				return procpool.Spawn(cfg.WorkerCmd())
			},
		}
	case len(cfg.RemoteHosts) > 0:
		// One slot per host — slots are pinned to their host, so none
		// are dropped even when there are fewer jobs than hosts (the
		// extra slots simply draw nothing).
		return &connector{hosts: cfg.RemoteHosts, dial: cfg.remoteDial, cooldown: linkCooldown}
	}
	return nil
}

// slot is one supervised worker lane: it owns at most one session at a
// time. The slot — not the process or the connection — is the unit of
// scheduling: a tile stays pinned to its slot across worker crashes,
// respawns and reconnects (each redispatch recomputes it from scratch,
// to the same bytes), so the journal, keyed by tile index, stays the
// only authority on tile state;
// and when the slot's breaker opens it degrades to the in-process
// ladder, so the run always completes no matter how hostile the worker
// binary or the network is.
type slot struct {
	env  *runEnv
	host string // "" for a subprocess: TileStat.Host/Proc provenance

	dialer  netpool.Dialer
	silence time.Duration   // watchdog bound on inter-frame gaps
	backoff netpool.Backoff // reconnect/respawn delay schedule
	breaker netpool.Breaker
	local   executor // the in-process ladder, behind the open breaker

	link *netpool.Conn
}

func (env *runEnv) newSlot(id int, host string, conn *connector, local executor) *slot {
	cfg := env.cfg
	silence := cmp.Or(cfg.linkSilence, linkSilence)
	return &slot{
		env:  env,
		host: host,
		dialer: netpool.Dialer{
			// The handshake carries the run's config fingerprint — the
			// same string that prefixes dedup-cache keys — so a worker
			// pinned to a different run's config refuses at connect, not
			// mid-tile. A peer mute for the silence bound is dead at the
			// handshake as much as after it.
			Fingerprint: env.keyPrefix,
			Handshake:   min(silence, netpool.DefaultHandshake),
			Dial:        conn.dial,
		},
		silence: silence,
		backoff: netpool.Backoff{
			Base: cmp.Or(cfg.linkBackoff, linkBackoff), Max: maxLinkBackoff,
			Rng: rand.New(rand.NewSource(int64(id) + 1)), // per-slot seed: deterministic tests
		},
		breaker: netpool.Breaker{Limit: cmp.Or(cfg.linkCrashLimit, linkCrashLimit), Cooldown: conn.cooldown},
		local:   local,
	}
}

// execute is the slot's executor: dispatch the rasterized tile until a
// reply lands or the breaker opens, then fall back to the in-process
// ladder. Every failed dispatch is counted on the tile and the run, and
// the last one's reason is kept on the tile.
func (s *slot) execute(ctx context.Context, j tileJob, target *grid.Real, out *tileOut) {
	env := s.env
	dispatch := 0
	for ctx.Err() == nil && s.breaker.Allow() {
		reply, err := s.dispatch(ctx, j, target, dispatch)
		if err == nil {
			s.breaker.Success()
			out.stat.ProcCrashes = dispatch
			out.stat.Proc = s.host == ""
			out.stat.Host = s.host
			// The supervisor stays the single authority on what enters
			// the stitched result: ownership filter, stats and quarantine
			// policy are applied here exactly as for a local ladder.
			env.fold(j, target, reply.Shots, reply.Path, reply.Outcomes, out)
			return
		}
		dispatch++
		out.stat.LinkErr = capString(err.Error(), maxAttemptErrBytes)
		env.linkCrashes.Add(1)
		if s.breaker.Failure() {
			// The breaker opened: a new degradation episode. Terminal
			// for subprocess slots; remote slots re-probe after the
			// cooldown, but this tile (and every tile drawn while the
			// breaker is open) completes locally.
			s.kill()
			env.linkBroken.Add(1)
		}
	}
	out.stat.ProcCrashes = dispatch
	if ctx.Err() == nil {
		// Same ladder on the same target: the output is identical to
		// what a healthy worker would have produced.
		s.local(ctx, j, target, out)
	}
}

// dispatch hands the tile to the slot's session — establishing or
// re-establishing one as needed — and awaits its reply. The error says
// why the dispatch failed (spawn or connect error, refused or silent
// handshake, worker death, link drop, silence kill, protocol garbage,
// or a worker-reported task error) and the tile must be redispatched or
// degraded.
func (s *slot) dispatch(ctx context.Context, j tileJob, target *grid.Real, dispatchN int) (*procpool.Reply, error) {
	if s.link == nil {
		if err := s.backoffWait(ctx); err != nil {
			return nil, err
		}
		link, err := s.dialer.Connect(ctx, s.host)
		if err != nil {
			return nil, err
		}
		s.link = link
	}
	if err := s.link.Send(s.env.buildTask(j, target, dispatchN)); err != nil {
		s.kill()
		return nil, err
	}
	return s.await(ctx, j)
}

// buildTask encodes one window as a procpool task. The quarantine
// bundle schema doubles as the wire protocol — the payload is exactly
// what a repro bundle holds, minus the attempt history a not-yet-run
// tile does not have — plus the redispatch counter (published on
// TileInfo).
func (env *runEnv) buildTask(j tileJob, target *grid.Real, dispatch int) *procpool.Task {
	return &procpool.Task{
		Bundle:   *env.buildBundle(j, target, nil),
		Dispatch: dispatch,
	}
}

// await consumes session messages until a reply for j arrives, the link
// dies, or it goes silent past the slot's silence bound. Any message —
// ping or beat — counts as liveness.
func (s *slot) await(ctx context.Context, j tileJob) (*procpool.Reply, error) {
	env := s.env
	timer := time.NewTimer(s.silence)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-timer.C:
			// Alive but mute beyond even its ping loop: a wedged process
			// or a stalled link. Kill and let the dispatch counter decide
			// reconnect vs breaker.
			s.kill()
			return nil, fmt.Errorf("worker silent for %v", s.silence)
		case m, ok := <-s.link.Messages():
			if !ok {
				// The link ended (worker death, drop, protocol garbage).
				err := s.link.Err()
				s.link = nil
				return nil, fmt.Errorf("link ended: %w", err)
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(s.silence)
			switch {
			case m.Beat != nil:
				// Forwarded optimizer heartbeat: liveness (the timer reset
				// above), and — when someone subscribed — progress, so the
				// event stream looks the same in every dispatch mode.
				if env.onBeat != nil && m.Beat.Index == j.index {
					env.onBeat(m.Beat.Index, m.Beat.Iter, m.Beat.Loss)
				}
			case m.Reply != nil:
				if m.Reply.Index != j.index {
					// Protocol confusion (a stale reply for some other
					// tile): this link cannot be trusted with the tile.
					s.kill()
					return nil, fmt.Errorf("reply for tile %d while tile %d was in flight", m.Reply.Index, j.index)
				}
				if m.Reply.Err != "" {
					// The worker is healthy but the task failed
					// deterministically (bad payload, engine setup).
					// Count it like a crash so the breaker bounds the
					// retries and the tile still completes in-process.
					return nil, fmt.Errorf("worker: %s", m.Reply.Err)
				}
				return m.Reply, nil
			}
			// A Ping is liveness only.
		}
	}
}

// backoffWait sleeps the exponential retry delay for the current
// consecutive-failure count (none after a clean dispatch), with jitter
// so a crash-looping fleet does not retry in lockstep. It returns ctx's
// error when ctx was canceled during the wait.
func (s *slot) backoffWait(ctx context.Context) error {
	d := s.backoff.Next(s.breaker.Consecutive())
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// kill discards the slot's session immediately (SIGKILL + reap, or a
// socket close).
func (s *slot) kill() {
	if s.link != nil {
		s.link.Kill()
		s.link = nil
	}
}

// shutdown ends the slot: a healthy session gets a graceful close (EOF
// → clean worker exit), anything else is already gone.
func (s *slot) shutdown() {
	if s.link != nil {
		s.link.Close()
		s.link = nil
	}
}
