// Package flow scales CFAOPC beyond a single simulation tile: it cuts a
// large layout into overlapping windows, optimizes each window
// independently (optics are shift-invariant, so one kernel set serves
// every window), and stitches the per-window shot lists back together,
// keeping only shots whose centers fall in each window's core region.
// This is the standard halo-and-stitch deployment of tile-based ILT on
// full-chip layouts.
//
// The flow is memory-bounded end to end: window targets are rasterized
// on demand from a row-bucketed span index over the rect geometry
// (layout.WindowIndex), never from a dense full-grid raster, and the
// shot list is the output — a caller that wants a mask rasterizes
// Result.Shots itself (server.WriteMask does, one row band at a time).
// Peak flow memory scales with the window size and worker count, not
// GridN² (Result.PeakBytes makes that observable).
//
// Windows are independent, so RunContext distributes them over a bounded
// pool of tile workers (Config.TileWorkers), each owning a private
// litho.Simulator. Kernel sets are shared read-only through the optics
// cache, so per-worker simulator construction is cheap. Per-tile results
// are collected into a slice indexed by row-major tile order and reduced
// in that order, so the stitched shot list is bit-identical at any
// worker count. Tiles are the only unit of parallelism: inside a window
// the simulator runs its kernels one after another.
//
// A full-chip run is also long and partially hostile territory — one
// degenerate window must never cost the other 9,999 — so the flow carries
// a fault envelope:
//
//   - Cancellation. RunContext threads a context through the worker pool
//     and into each worker's simulator, so SIGINT or a deadline stops the
//     run within one kernel convolution and returns ctx.Err().
//   - Isolation. Each optimizer attempt runs under recover() and its
//     output is validated (no NaNs, radii in bounds, centers inside the
//     window). A bad tile is retried (Config.TileRetries), then degraded
//     to Config.Fallback, then to an empty tile — never a crashed run.
//     TileStat records every attempt's outcome and failure mode.
//   - Liveness. Engines emit one heartbeat per iteration through the
//     simulator (litho.Simulator.Beat); with Config.StallTimeout set, a
//     timer every heartbeat resets kills an optimizer whose heartbeats
//     stop — a wedge — long before the wall deadline
//     (Config.TileTimeout) would, while an equally slow but heartbeating
//     attempt runs on. TileStat.{Iters, LastLoss, Stalled} surface the
//     heartbeat stream.
//   - Restartability. With Config.CheckpointPath set, every completed
//     tile is journaled through internal/checkpoint; a rerun replays the
//     journal, skips finished tiles, and still reduces in row-major
//     order, so a resumed run's shot list is bit-identical to an
//     uninterrupted one. A finished tile is the unit of resume: a tile
//     in flight when the run died is recomputed from scratch, to the
//     same bytes.
//   - Forensics. A tile that exhausts every engine degrades to empty but
//     no longer silently: with Config.QuarantineDir set, the flow writes
//     a self-contained repro bundle (window target, owning rects, config
//     fingerprint, per-attempt history) through internal/quarantine;
//     cmd/tileworker replays bundles offline (procworker.Run → ServeTask).
//
// Every tile takes one pipeline — rasterize, cache lookup, execute,
// cache store (runTile) — and RunContext reads validate → plan → replay
// → execute → reduce. Where a tile executes is the only thing that
// varies: on the lane's own simulator, or (Config.ProcWorkers,
// Config.RemoteHosts) on a tile worker in another process or on another
// machine. Both kinds of worker speak one session protocol
// (internal/netpool over internal/procpool frames) and are supervised by
// one slot type (slot.go); a subprocess is merely a dial that spawns the
// worker and uses its stdin/stdout as the connection. A slot that cannot
// keep a worker alive falls back to the in-process ladder, so no worker
// failure can fail a run or change its bytes.
package flow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
	"cfaopc/internal/wcache"
)

// Optimizer produces the shot list for one window target. The raster is
// the calling lane's and is repainted for its next tile: an optimizer
// that wants the pixels after it returns copies them.
type Optimizer func(sim *litho.Simulator, target *grid.Real) []geom.Circle

// ErrStalled marks an optimizer attempt killed by its stall timer:
// no heartbeat arrived within Config.StallTimeout, so the attempt was
// wedged, not slow.
var ErrStalled = errors.New("optimizer stalled")

// Config controls the tiling.
type Config struct {
	// GridN is the pixel count across the full layout.
	GridN int
	// CorePx is the core (owned) region edge of each window; shots whose
	// centers fall here are kept.
	CorePx int
	// HaloPx is the optical context margin added on every side of a core;
	// it should exceed the optical interaction range (~λ/NA ≈ 143 nm).
	HaloPx int
	// Optics is the imaging condition; TileNM is overridden with the
	// window's physical edge.
	Optics optics.Config
	// KOpt truncates kernels during per-window optimization.
	KOpt int
	// TileWorkers bounds the windows optimized concurrently. Zero or one
	// runs serially; negative uses GOMAXPROCS. Each worker owns a private
	// simulator and results are reduced in row-major tile order, so the
	// output is bit-identical at any worker count (assuming Optimize is
	// deterministic for a given simulator and target).
	TileWorkers int
	// Optimize runs on each window (e.g. a core.CircleOpt wrapper). It
	// must be safe to call concurrently on distinct simulators.
	Optimize Optimizer

	// TileRetries is how many extra times a failed window is re-attempted
	// with Optimize before degrading. Zero means one attempt only.
	TileRetries int
	// Fallback, when non-nil, runs once after Optimize (and its retries)
	// failed — typically a cheaper, hardier engine such as rule-based
	// fracturing of the rasterized target (CircleRule) standing in for
	// CircleOpt. If it also fails, the tile degrades to empty.
	Fallback Optimizer
	// TileTimeout bounds the wall time of a single optimizer attempt.
	// A timed-out attempt counts as a failure (and is retried / degraded
	// like one); zero disables the deadline.
	TileTimeout time.Duration
	// StallTimeout bounds the gap between optimizer heartbeats within a
	// single attempt (litho.Simulator.Beat, one per iteration): a timer
	// armed at the attempt's start and reset by every heartbeat kills
	// the attempt as stalled when it fires — telling a wedged optimizer
	// from a legitimately slow one, which TileTimeout alone cannot.
	// Enable it only with engines that heartbeat (or finish) faster than
	// this. Zero disables it. Must not exceed a non-zero TileTimeout.
	StallTimeout time.Duration
	// RMinPx / RMaxPx bound valid shot radii (in window-grid pixels) for
	// output validation; a shot outside [RMinPx, RMaxPx] fails the tile.
	// Both zero disables the radius check.
	RMinPx, RMaxPx float64
	// CheckpointPath, when non-empty, journals every completed tile
	// (shots + stat) so an interrupted run resumes instead of restarting.
	// The journal is bound to the (layout, tiling) fingerprint: reusing a
	// path across different runs is an error, not silent corruption.
	CheckpointPath string
	// QuarantineDir, when non-empty, receives a self-contained repro
	// bundle (internal/quarantine) for every tile that degrades to
	// empty. A bundle write failure loses that tile's forensics but
	// never the tile or the run: the drop is counted in
	// Result.QuarantineDropped.
	QuarantineDir string

	// FS is the filesystem seam for the run's persistence side effects —
	// checkpoint journal, quarantine bundles — used by fault-injection
	// and crash-consistency tests. Nil means the real filesystem. The
	// dedup cache carries its own seam (wcache.Config.FS), since the
	// cache object usually outlives one run.
	FS iox.FS
	// Engines describes how to rebuild Optimize/Fallback offline (method
	// names + knobs). Worker tasks and quarantine bundles carry it
	// verbatim, so a worker or cmd/tileworker's replay rebuilds the exact
	// attempt sequence; the flow itself never interprets it.
	Engines quarantine.EngineMeta

	// ProcWorkers and RemoteHosts move tile execution out of this
	// process, to tile workers speaking one session protocol
	// (internal/netpool) reached two ways. Both are supervised the same:
	// a slot detects crash, EOF, link drop and silence, respawns or
	// reconnects with exponential backoff and jitter, and after three
	// consecutive failures its circuit breaker degrades its tiles to the
	// in-process ladder, so the run always completes — even with zero
	// reachable workers. The determinism contract extends
	// across the boundary: results reduce in row-major tile order and
	// resume state is journal-keyed, so shots and checkpoints are
	// byte-identical to the serial in-process run for
	// any mix of hosts, crashes, reconnects and interrupt+resume. The
	// two are mutually exclusive, both need Engines metadata (the worker
	// rebuilds the optimizer chain from it), and both ignore
	// TileWorkers.
	//
	// ProcWorkers, when > 0, runs that many local worker subprocesses
	// (WorkerCmd), each reached over its stdin/stdout: a process-fatal
	// tile failure (OOM kill, runtime fatal, wedged FFT) costs one
	// dispatch, not the run. A slot whose breaker opens stays in-process
	// for the rest of the run.
	ProcWorkers int
	// RemoteHosts, when non-empty, shards tiles across TCP tile-worker
	// hosts (cmd/tileworker -listen), one slot per host. An open breaker
	// lets one probe dispatch through every 5s, so a partitioned host
	// can rejoin the run.
	RemoteHosts []string
	// WorkerCmd builds one worker subprocess command (required when
	// ProcWorkers > 0; must be safe to call concurrently). The
	// supervisor forces procpool.WorkerEnv=1 into its environment; the
	// child must detect that (procpool.InWorker) and serve the session
	// on stdin/stdout, as procworker.ServeIfWorker does (cmd/cfaopc
	// re-executes itself; tests spawn their own binary).
	WorkerCmd func() *exec.Cmd
	// linkSilence, linkBackoff and linkCrashLimit shorten the slot
	// supervision constants (slot.go) for this package's tests; zero,
	// which is all a caller outside it can have, means the constant.
	linkSilence, linkBackoff time.Duration
	linkCrashLimit           int
	// remoteDial replaces the TCP dial to RemoteHosts for this package's
	// tests (in-memory pipes); nil, as outside it, dials plain TCP.
	remoteDial func(ctx context.Context, addr string) (net.Conn, error)

	// Cache, when non-nil, is the window dedup cache: each eligible tile
	// is keyed by a canonical content hash (window target raster, owning
	// rect spans in window-local coordinates, core geometry, and the
	// run's config fingerprint), and a hit translates the cached
	// window-local shots into place instead of re-optimizing. The cache
	// changes wall time only — shots and checkpoint journals are
	// byte-identical with the cache on or off, because the
	// key covers every input the (deterministic) optimizer sees. Only
	// real results are stored; a tile that degraded to empty is never
	// served to a twin.
	Cache *wcache.Cache

	// Events, when non-nil, receives the run's live progress stream:
	// one EventBeat per optimizer heartbeat (forwarded across the
	// process and network boundaries in proc/remote mode) and exactly
	// one EventTile per completed tile, journal-replayed tiles
	// included. Events are observability only — they never alter the
	// result, and the run does not wait on the sink. See EventSink for
	// the concurrency contract the callback must honor.
	Events EventSink
}

// Outcome paths recorded in TileStat.Path.
const (
	PathPrimary  = "primary"  // Optimize succeeded (possibly after retries)
	PathFallback = "fallback" // Optimize exhausted retries; Fallback succeeded
	PathEmpty    = "empty"    // both failed; the tile contributes no shots
)

// TileStat records what one window contributed to the stitched result.
type TileStat struct {
	Index    int           // row-major window index (plan order)
	CX, CY   int           // core origin in full-grid pixels
	Core     int           // core edge in px (Config.CorePx)
	Window   int           // window edge in px (core + 2·halo)
	Occupied bool          // window held target geometry and was optimized
	Shots    int           // core-owned shots kept from this window
	Wall     time.Duration // wall time spent on this window
	// RasterWall is the slice of Wall spent rasterizing the window target
	// from the rect geometry (the streaming replacement for extracting it
	// out of a full-grid raster).
	RasterWall time.Duration

	Attempts int // optimizer invocations (primary + fallback); 0 if unoccupied
	Path     string
	// Failure joins every failed attempt's error (attempt-indexed, in
	// order), capped at maxFailureBytes so pathological error strings
	// cannot bloat checkpoints or stats. "" when the first attempt
	// succeeded.
	Failure string
	Resumed bool // replayed from the checkpoint journal, not recomputed

	Iters    int     // optimizer heartbeats received across all attempts
	LastLoss float64 // loss reported by the most recent heartbeat
	Stalled  bool    // some attempt was killed by its stall timer
	// Bundle is the quarantine repro bundle path for a tile that
	// degraded to empty ("" otherwise, or when no QuarantineDir is set).
	Bundle string

	// Proc marks a tile whose final result came from a worker
	// subprocess; a tile computed in-process (serial mode, or a
	// circuit-broken slot) leaves it false.
	Proc bool
	// Host is the remote host that produced this tile's final result
	// ("" for subprocess, in-process, and breaker-degraded tiles).
	// Provenance only: the result bytes are host-independent.
	Host string
	// ProcCrashes counts failed dispatches (worker death, silence kill,
	// or a worker-reported task error) suffered while this tile was in
	// flight; the tile still completed through respawn or the
	// in-process breaker path.
	ProcCrashes int
	// LinkErr is why the last failed dispatch failed ("" when none did):
	// the torn frame, CRC error, protocol violation, silence, dial error
	// or worker-reported task error that ended it.
	LinkErr string

	// CacheHit marks a tile answered by translating a cached twin's
	// shots instead of optimizing; its Path/Attempts/Iters/LastLoss are
	// inherited from the twin's record. CacheKey is the canonical
	// content hash computed for every occupied tile (hit or miss); ""
	// when the cache was off.
	CacheHit bool
	CacheKey string
}

// AttemptOutcome records one optimizer invocation for forensics. The
// declaration lives with the wire protocol that carries it in a Reply.
type AttemptOutcome = procpool.Outcome

// Result is the stitched output.
type Result struct {
	Shots     []geom.Circle // full-grid shot list
	Tiles     int           // number of windows optimized
	TileStats []TileStat    // per-window records in row-major order

	Retried     int // tiles that needed >1 attempt but still finished on Optimize
	Fallbacks   int // tiles that degraded to the Fallback optimizer
	Empty       int // tiles degraded to empty after every optimizer failed
	Resumed     int // tiles replayed from the checkpoint journal
	Stalled     int // tiles where a stall timer killed an attempt
	Quarantined int // tiles that wrote a quarantine repro bundle

	// LinkCrashes totals failed worker dispatches across the run (spawn
	// and connect failures, refused handshakes, worker deaths, link
	// drops, silence kills, worker-reported task errors); LinkBroken
	// counts breaker-open episodes across slots (a remote host that
	// degrades, heals, and degrades again counts twice). Both stay zero
	// in-process.
	LinkCrashes int
	LinkBroken  int

	// CacheHits / CacheMisses count cache lookups by freshly processed
	// tiles (replayed-from-journal tiles perform none); CacheBytes is
	// the cache's resident in-memory size at run end. All zero when
	// Config.Cache is nil.
	CacheHits   int
	CacheMisses int
	CacheBytes  int64

	// PeakBytes estimates the peak bytes of flow-owned buffers held
	// resident during the run: the layout span index, one window target
	// per tile worker and the stitched shot list. Optimizer- and
	// simulator-internal allocations are not counted; the estimate's job
	// is to make the O(window²) vs O(GridN²) scaling observable.
	PeakBytes int64

	// CheckpointDegraded marks a run whose checkpoint journal suffered a
	// write or sync failure after opening: the run's outputs are still
	// complete and correct, but tiles finished after the failure were
	// not journaled, so a crash would re-optimize them. CheckpointErr
	// holds the first storage error. Both zero on healthy storage.
	CheckpointDegraded bool
	CheckpointErr      string
	// QuarantineDropped counts empty tiles whose repro bundle could not
	// be written (disk fault); the tiles themselves completed normally.
	QuarantineDropped int

	// TravelNM is the beam travel, in nm, of the ordered shot file the
	// job wrote after the run (server.Run sets it; 0 when none was).
	TravelNM float64
}

// maxFailureBytes caps TileStat.Failure; maxAttemptErrBytes caps each
// individual attempt error as recorded in outcomes and bundles.
const (
	maxFailureBytes    = 1024
	maxAttemptErrBytes = 2048
)

// tileWorkerCount resolves the effective tile parallelism.
func tileWorkerCount(w, jobs int) int {
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// ownedShots translates window-local shots to full-grid coordinates and
// keeps those whose centers fall in the core [cx, cx+corePx) × [cy,
// cy+corePx) — the ownership rule that makes seam shots unique.
func ownedShots(shots []geom.Circle, ox, oy, cx, cy, corePx int) []geom.Circle {
	var kept []geom.Circle
	for _, s := range shots {
		gx := s.X + float64(ox)
		gy := s.Y + float64(oy)
		if gx < float64(cx) || gx >= float64(cx+corePx) ||
			gy < float64(cy) || gy >= float64(cy+corePx) {
			continue
		}
		kept = append(kept, geom.Circle{X: gx, Y: gy, R: s.R})
	}
	return kept
}

// tileJob identifies one window by its plan index and core origin; every
// window has a Config.CorePx core and a Config.window() edge.
type tileJob struct {
	index  int
	cx, cy int
}

// origin is the window's top-left corner in full-grid pixels: the core
// origin pulled back by the halo.
func (j tileJob) origin(halo int) (ox, oy int) { return j.cx - halo, j.cy - halo }

// stat is the identity a tile's record starts from.
func (j tileJob) stat(cfg Config) TileStat {
	return TileStat{Index: j.index, CX: j.cx, CY: j.cy, Core: cfg.CorePx, Window: cfg.window()}
}

// planTiles cuts the grid into CorePx cells in row-major order — the
// reduce order, and the order checkpoint journal keys are indexed by.
func planTiles(cfg Config) []tileJob {
	var jobs []tileJob
	for cy := 0; cy < cfg.GridN; cy += cfg.CorePx {
		for cx := 0; cx < cfg.GridN; cx += cfg.CorePx {
			jobs = append(jobs, tileJob{index: len(jobs), cx: cx, cy: cy})
		}
	}
	return jobs
}

// tileOut is one window's contribution before the ordered reduce. raw
// holds the full window-local shot list (pre-ownership-filter) so a
// fresh result can be published to the dedup cache for twins with any
// core placement.
type tileOut struct {
	shots []geom.Circle
	raw   []geom.Circle
	stat  TileStat
}

// runEnv is the per-run state shared by every tile worker: the config,
// the layout and its span index, and the open journal. ServeTask builds
// a minimal env with no layout, index or journal.
type runEnv struct {
	cfg       Config
	optics    optics.Config // the window's imaging condition
	lay       *layout.Layout
	fp        []byte
	keyPrefix string // config fingerprint: the dedup cache key prefix
	ix        *layout.WindowIndex
	journal   *tileJournal // nil without a checkpoint

	// onBeat, when non-nil, observes every optimizer heartbeat in
	// addition to the per-attempt stall timer — a worker forwards
	// them to its supervisor as liveness frames.
	onBeat func(index, iter int, loss float64)
	// events is Config.Events: the run's progress subscriber (nil when
	// nobody is listening).
	events EventSink
	// dispatch is published on TileInfo (always 0 in-process; a
	// worker's redispatch counter otherwise).
	dispatch int

	quarMu sync.Mutex // serializes bundle saves
	// Breaker openings across every worker slot: an episode belongs to
	// the slot, not to the tile that tripped it.
	linkBroken atomic.Int64
}

// validateTile rejects optimizer output that would poison the stitched
// result: non-finite shots, radii outside [RMinPx, RMaxPx] and centers
// outside the window. Coordinates here are window-local.
func validateTile(shots []geom.Circle, cfg Config, window int) error {
	const eps = 1e-9
	for i, s := range shots {
		if !finite(s.X) || !finite(s.Y) || !finite(s.R) {
			return fmt.Errorf("shot %d not finite: %+v", i, s)
		}
		if s.X < 0 || s.X > float64(window) || s.Y < 0 || s.Y > float64(window) {
			return fmt.Errorf("shot %d center (%g, %g) outside window %d", i, s.X, s.Y, window)
		}
		if cfg.RMinPx > 0 || cfg.RMaxPx > 0 {
			if s.R < cfg.RMinPx-eps || s.R > cfg.RMaxPx+eps {
				return fmt.Errorf("shot %d radius %g outside [%g, %g]", i, s.R, cfg.RMinPx, cfg.RMaxPx)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// attemptTile runs one optimizer invocation in isolation: a panic or
// invalid output becomes an error, the per-attempt wall deadline and
// the stall timer (reset by every heartbeat) cancel the simulator's
// cooperative context, and the tile's identity is published on that
// context for optimizer wrappers (TileInfo). The returned outcome records
// the attempt for stats, bundles and replay comparison.
func (env *runEnv) attemptTile(ctx context.Context, sim *litho.Simulator, optimize Optimizer,
	target *grid.Real, j tileJob, attempt int, engine string) ([]geom.Circle, AttemptOutcome) {
	cfg := env.cfg
	out := AttemptOutcome{Attempt: attempt, Engine: engine}
	tctx := ctx
	if cfg.TileTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, cfg.TileTimeout)
		defer cancel()
	}
	tctx, cancelCause := context.WithCancelCause(tctx)
	defer cancelCause(nil)
	tctx = context.WithValue(tctx, tileInfoKey{}, TileInfo{Index: j.index, Attempt: attempt, Dispatch: env.dispatch})
	var stall *time.Timer
	stallAfter := cfg.StallTimeout
	if stallAfter > 0 {
		stall = time.AfterFunc(stallAfter, func() {
			cancelCause(fmt.Errorf("%w: no heartbeat within %s", ErrStalled, stallAfter))
		})
		defer stall.Stop()
	}
	// Beats arrive on this goroutine, from inside optimize.
	beat := func(iter int, loss float64) {
		out.Iters++
		out.LastLoss = loss
		if stall != nil {
			stall.Reset(stallAfter)
		}
		if env.onBeat != nil {
			env.onBeat(j.index, iter, loss)
		}
	}

	shots, err := runGuarded(tctx, sim, optimize, beat, target, cfg, target.W)
	if err != nil {
		if errors.Is(err, ErrStalled) {
			out.Stalled = true
		}
		out.Err = capString(err.Error(), maxAttemptErrBytes)
		return nil, out
	}
	return shots, out
}

// runGuarded executes one optimizer call under panic recovery, checks
// the cooperative context afterwards (a canceled attempt's output is
// untrusted), and validates the output.
func runGuarded(tctx context.Context, sim *litho.Simulator, optimize Optimizer, beat func(int, float64),
	target *grid.Real, cfg Config, window int) (shots []geom.Circle, err error) {
	sim.Ctx, sim.OnBeat = tctx, beat
	defer func() {
		sim.Ctx, sim.OnBeat = nil, nil
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	shots = optimize(sim, target)
	if cerr := tctx.Err(); cerr != nil {
		// Canceled, timed out, or stall-killed mid-attempt: the output is
		// untrusted. The cancellation cause distinguishes the stall timer
		// (ErrStalled) from the wall deadline and run-level cancel.
		if cause := context.Cause(tctx); cause != nil && !errors.Is(cause, cerr) {
			return nil, cause
		}
		return nil, cerr
	}
	if verr := validateTile(shots, cfg, window); verr != nil {
		return nil, fmt.Errorf("invalid output: %w", verr)
	}
	return shots, nil
}

// attemptSequence walks the degradation ladder for one window: primary
// with retries, then the fallback, then empty. It returns window-local
// shots, the outcome path ("" when the run was canceled mid-tile) and
// the per-attempt history.
func (env *runEnv) attemptSequence(ctx context.Context, sim *litho.Simulator, j tileJob,
	target *grid.Real) (shots []geom.Circle, path string, outcomes []AttemptOutcome) {
	cfg := env.cfg
	for attempt := 0; attempt <= cfg.TileRetries; attempt++ {
		if ctx.Err() != nil {
			return nil, "", outcomes // run canceled: abandon, don't degrade
		}
		s, out := env.attemptTile(ctx, sim, cfg.Optimize, target, j, attempt, "primary")
		outcomes = append(outcomes, out)
		if out.Err == "" {
			return s, PathPrimary, outcomes
		}
		if ctx.Err() != nil {
			return nil, "", outcomes
		}
	}
	if cfg.Fallback != nil {
		s, out := env.attemptTile(ctx, sim, cfg.Fallback, target, j, cfg.TileRetries+1, "fallback")
		outcomes = append(outcomes, out)
		if out.Err == "" {
			return s, PathFallback, outcomes
		}
		if ctx.Err() != nil {
			return nil, "", outcomes
		}
	}
	// Graceful floor: the window contributes nothing, the run survives.
	return nil, PathEmpty, outcomes
}

// applyOutcomes folds the attempt history into the tile stat.
func applyOutcomes(st *TileStat, outcomes []AttemptOutcome) {
	st.Attempts = len(outcomes)
	for _, o := range outcomes {
		st.Iters += o.Iters
		if o.Iters > 0 {
			st.LastLoss = o.LastLoss
		}
		if o.Stalled {
			st.Stalled = true
		}
	}
	st.Failure = joinFailures(outcomes)
}

// joinFailures renders the attempt-indexed error history, capped so a
// pathological error string can't bloat checkpoints or stats.
func joinFailures(outcomes []AttemptOutcome) string {
	var b strings.Builder
	for _, o := range outcomes {
		if o.Err == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "attempt %d (%s): %s", o.Attempt, o.Engine, o.Err)
		if b.Len() > maxFailureBytes {
			break
		}
	}
	return capString(b.String(), maxFailureBytes)
}

func capString(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + " …[truncated]"
}

// executor is the one step of a tile that depends on where tiles run:
// given the rasterized window it fills out with the degradation
// ladder's result — on this goroutine's own simulator, or through a
// worker slot that falls back to the local ladder when its breaker
// opens. A canceled context leaves out.stat.Path empty.
type executor func(ctx context.Context, j tileJob, target *grid.Real, out *tileOut)

// runTile takes one window through raster → cache lookup → execute →
// cache store, the same pipeline in every dispatch mode. The window's
// span list is read once from the layout's span index — the streaming
// path; no full-grid raster exists anywhere — and is both painted into
// target and hashed into the cache key. target is the calling lane's one
// window raster: it holds this tile's pixels until the lane's next
// runTile, so whatever wants them longer (a bundle, a task on the wire)
// copies them. A tile degrades through retry → fallback → empty instead
// of failing the run; when ctx is canceled it is abandoned (stat.Path
// stays empty) and RunContext turns that into ctx.Err() for the whole
// run.
func (env *runEnv) runTile(ctx context.Context, exec executor, target *grid.Real, j tileJob) (out tileOut) {
	start := time.Now()
	out = tileOut{stat: j.stat(env.cfg)}
	// out is the named result: a deferred write to a local would land
	// after the return value was already copied out.
	defer func() { out.stat.Wall = time.Since(start) }()
	ox, oy := j.origin(env.cfg.HaloPx)
	spans := env.ix.WindowSpans(ox, oy, target.W, target.H)
	occupied := layout.Paint(target, spans)
	out.stat.Occupied = occupied
	out.stat.RasterWall = time.Since(start)
	if !occupied {
		return out
	}
	if env.tryCache(j, target, spans, &out) {
		return out
	}
	exec(ctx, j, target, &out)
	env.storeCache(&out)
	return out
}

// ladder walks the in-process degradation sequence for one rasterized
// window and folds the outcome into out.
func (env *runEnv) ladder(ctx context.Context, sim *litho.Simulator, j tileJob,
	target *grid.Real, out *tileOut) {
	shots, path, outcomes := env.attemptSequence(ctx, sim, j, target)
	env.fold(j, target, shots, path, outcomes, out)
}

// fold records one walked ladder — here or on a worker — in out:
// window-local shots pass the core-ownership filter, the attempt
// history lands on the stat, and a tile that ended on PathEmpty writes
// its quarantine bundle from the process that holds its target.
func (env *runEnv) fold(j tileJob, target *grid.Real, shots []geom.Circle, path string,
	outcomes []AttemptOutcome, out *tileOut) {
	out.stat.Path = path
	applyOutcomes(&out.stat, outcomes)
	switch path {
	case PathPrimary, PathFallback:
		out.raw = shots
		ox, oy := j.origin(env.cfg.HaloPx)
		out.shots = ownedShots(shots, ox, oy, j.cx, j.cy, env.cfg.CorePx)
		out.stat.Shots = len(out.shots)
	case PathEmpty:
		env.saveQuarantine(j, target, outcomes, &out.stat)
	}
}

// saveQuarantine writes the repro bundle for a tile that degraded to
// empty, with the layout rects that overlap its window: a scan of every
// rect, paid only by a bundle that goes to disk. Saves are serialized
// under quarMu.
func (env *runEnv) saveQuarantine(j tileJob, target *grid.Real, outcomes []AttemptOutcome, st *TileStat) {
	cfg := env.cfg
	if cfg.QuarantineDir == "" {
		return
	}
	b := env.buildBundle(j, target, outcomes)
	if env.lay != nil {
		ox, oy := j.origin(cfg.HaloPx)
		b.Rects = overlapRects(env.lay, cfg.GridN, ox, oy, cfg.window())
	}
	env.quarMu.Lock()
	defer env.quarMu.Unlock()
	bpath, err := quarantine.SaveFS(cfg.FS, cfg.QuarantineDir, b)
	if err != nil {
		// Losing the bundle loses forensics, never the tile: the empty
		// result is already folded in, so the run continues, and reduce
		// counts the drop from the bundle-less stat.
		return
	}
	st.Bundle = bpath
}

// buildBundle assembles a tile's bundle: its target, the config and the
// attempts, everything a worker needs to run the tile and a replay needs
// to reproduce it. Only saveQuarantine adds the layout rects.
func (env *runEnv) buildBundle(j tileJob, target *grid.Real, outcomes []AttemptOutcome) *quarantine.Bundle {
	cfg := env.cfg
	ox, oy := j.origin(cfg.HaloPx)
	b := &quarantine.Bundle{
		FormatVersion: quarantine.FormatVersion,
		Fingerprint:   string(env.fp),
		GridN:         cfg.GridN,
		CorePx:        cfg.CorePx,
		HaloPx:        cfg.HaloPx,
		KOpt:          cfg.KOpt,
		TileRetries:   cfg.TileRetries,
		TileTimeout:   cfg.TileTimeout,
		StallTimeout:  cfg.StallTimeout,
		RMinPx:        cfg.RMinPx,
		RMaxPx:        cfg.RMaxPx,
		Optics:        env.optics,
		Engines:       cfg.Engines,
		Tile: quarantine.Tile{
			Index: j.index, CX: j.cx, CY: j.cy,
			OriginX: ox, OriginY: oy, WindowPx: cfg.window(),
		},
		TargetW: target.W,
		TargetH: target.H,
		Target:  append([]float64(nil), target.Data...),
	}
	if env.lay != nil {
		b.LayoutName = env.lay.Name
		b.TileNM = env.lay.TileNM
	}
	for _, o := range outcomes {
		b.Attempts = append(b.Attempts, quarantine.Attempt{
			Index: o.Attempt, Engine: o.Engine, Err: o.Err,
			Iters: o.Iters, LastLoss: o.LastLoss, Stalled: o.Stalled,
		})
	}
	return b
}

// overlapRects returns the layout rects (nm coordinates) whose extent
// overlaps the window [ox, ox+window)² given in grid pixels — the
// geometry a repro bundle needs to re-derive its target raster.
func overlapRects(l *layout.Layout, gridN, ox, oy, window int) []layout.Rect {
	dx := float64(l.TileNM) / float64(gridN)
	x0, x1 := float64(ox)*dx, float64(ox+window)*dx
	y0, y1 := float64(oy)*dx, float64(oy+window)*dx
	var out []layout.Rect
	for _, r := range l.Rects {
		if float64(r.X) < x1 && float64(r.X+r.W) > x0 &&
			float64(r.Y) < y1 && float64(r.Y+r.H) > y0 {
			out = append(out, r)
		}
	}
	return out
}

// numericsVersion names the arithmetic that turns a window into shots:
// the FFT plans, the litho forward and adjoint sums, the optimizers. It is
// hashed into the config fingerprint, and through it into every dedup
// cache key, checkpoint header and remote-worker handshake, so results of
// different arithmetic never mix: a stale cache entry is a miss, an old
// journal fails the header check, a skewed worker is refused at connect.
// Bump it in any change that can alter a floating-point result on the
// optimize path, even in the last bit.
//
//	1: radix-2 and Bluestein FFT, full 2-D transforms
//	2: mixed-radix Stockham FFT, band-pruned transforms in litho
//	3: reduced-grid SOCS, corner-packed transforms, QL kernel build
//	4: table-driven exp behind every sigmoid in litho
const numericsVersion = 4

// configFingerprint hashes every config knob that can change a window's
// optimized output — tiling geometry, validation policy, optics, engine
// metadata, the physical pixel pitch, and the numerics version — but no
// layout geometry. It serves two masters: it
// is the window dedup cache's key prefix (layout-free, so identical
// windows collide across layouts and runs), and it is folded into the
// per-(layout, tiling) checkpoint fingerprint below. It cannot cover the
// optimizer funcs themselves (not hashable); Config.Engines is the
// stand-in, so set it whenever a disk cache is shared across processes.
func configFingerprint(cfg Config, dxNM float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "grid=%d core=%d halo=%d kopt=%d retries=%d rmin=%g rmax=%g dx=%g\n",
		cfg.GridN, cfg.CorePx, cfg.HaloPx, cfg.KOpt, cfg.TileRetries, cfg.RMinPx, cfg.RMaxPx, dxNM)
	fmt.Fprintf(h, "optics=%+v\n", cfg.Optics)
	fmt.Fprintf(h, "engines=%+v\n", cfg.Engines)
	fmt.Fprintf(h, "numerics=%d\n", numericsVersion)
	return fmt.Sprintf("cfaopc-cfg-v2 %016x", h.Sum64())
}

// validate rejects configurations RunContext cannot run.
func (cfg Config) validate() error {
	switch {
	case cfg.GridN <= 0:
		return fmt.Errorf("flow: invalid grid %d", cfg.GridN)
	case cfg.CorePx <= 0 || cfg.HaloPx < 0:
		return fmt.Errorf("flow: invalid core %d / halo %d", cfg.CorePx, cfg.HaloPx)
	case cfg.Optimize == nil:
		return fmt.Errorf("flow: no optimizer")
	case cfg.TileRetries < 0:
		return fmt.Errorf("flow: negative retries %d", cfg.TileRetries)
	case cfg.StallTimeout < 0:
		return fmt.Errorf("flow: negative stall timeout %s", cfg.StallTimeout)
	case cfg.StallTimeout > 0 && cfg.TileTimeout > 0 && cfg.StallTimeout > cfg.TileTimeout:
		return fmt.Errorf("flow: stall timeout %s exceeds tile timeout %s (the wall deadline would always fire first)",
			cfg.StallTimeout, cfg.TileTimeout)
	case cfg.ProcWorkers < 0:
		return fmt.Errorf("flow: negative proc workers %d", cfg.ProcWorkers)
	case cfg.ProcWorkers > 0 && cfg.WorkerCmd == nil:
		return fmt.Errorf("flow: ProcWorkers set but no WorkerCmd to spawn them with")
	case len(cfg.RemoteHosts) > 0 && cfg.ProcWorkers > 0:
		return fmt.Errorf("flow: RemoteHosts and ProcWorkers are mutually exclusive transports")
	case (len(cfg.RemoteHosts) > 0 || cfg.ProcWorkers > 0) && cfg.Engines.Primary == "":
		return fmt.Errorf("flow: ProcWorkers and RemoteHosts require Engines metadata (the worker rebuilds the optimizer chain from it)")
	case cfg.window() > cfg.GridN:
		return fmt.Errorf("flow: window %d exceeds grid %d", cfg.window(), cfg.GridN)
	}
	return nil
}

// window is the edge of every window in px: the core plus a halo on each
// side.
func (cfg Config) window() int { return cfg.CorePx + 2*cfg.HaloPx }

// RunContext tiles the layout and optimizes every window under ctx.
// Cancellation (SIGINT, deadline) stops the worker pool and the
// in-flight simulations promptly and returns a nil Result with
// ctx.Err(). Tiles finished before the cancel are journaled and fsynced
// before it returns, so a canceled run resumes where it stopped even
// after a crash. It reads validate → plan → replay → execute → reduce.
func RunContext(ctx context.Context, l *layout.Layout, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dx := float64(l.TileNM) / float64(cfg.GridN)
	env := &runEnv{
		cfg:       cfg,
		optics:    cfg.Optics,
		lay:       l,
		fp:        fingerprint(l, cfg),
		keyPrefix: configFingerprint(cfg, dx),
		events:    cfg.Events,
	}
	// Optics are shift-invariant, so one kernel set serves every window.
	env.optics.TileNM = float64(cfg.window()) * dx
	if env.events != nil {
		// Heartbeats reach the sink through the same hook a worker
		// supervisor uses, so in-process attempts and forwarded worker
		// beats look identical downstream.
		sink := env.events
		env.onBeat = func(index, iter int, loss float64) {
			sink(Event{Kind: EventBeat, Tile: index, Iter: iter, Loss: loss})
		}
	}

	// Plan. No full-grid raster is ever allocated: workers rasterize
	// each window on demand from the row-bucketed span index.
	env.ix = layout.NewWindowIndex(l, cfg.GridN)
	plan := planTiles(cfg)
	outs := make([]tileOut, len(plan))

	// Replay the checkpoint journal, if any.
	jobs, resumed, err := env.replay(plan, outs)
	if err != nil {
		return nil, err
	}
	defer env.journal.close()

	// Execute: one goroutine per lane draws the plan's tiles in order.
	lanes, err := env.lanes(cfg.connector(len(jobs)), len(jobs))
	if err != nil {
		return nil, err
	}
	// complete folds one finished tile into the shared run state. It is
	// the single sink every lane feeds, so checkpointing behaves
	// identically in every dispatch mode.
	complete := func(j tileJob, out tileOut) {
		outs[j.index] = out
		env.emitTile(j.index, out.stat)
		if ctx.Err() == nil {
			env.journal.tile(out)
		}
	}
	var next atomic.Int64 // the plan's next undrawn tile
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln lane) {
			defer wg.Done()
			defer ln.stop()
			target := grid.NewReal(cfg.window(), cfg.window()) // the lane's, repainted per tile
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				complete(jobs[i], env.runTile(ctx, ln.exec, target, jobs[i]))
			}
		}(ln)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		env.journal.sync()
		return nil, err
	}
	res := env.reduce(outs, len(lanes))
	res.Resumed = resumed
	return res, nil
}

// lane is one worker goroutine's way of executing tiles, plus the
// cleanup it owes when the job stream ends.
type lane struct {
	exec executor
	stop func()
}

// lanes builds the run's worker lanes. Simulators are built serially up
// front so a kernel error surfaces before any goroutine starts: one per
// in-process lane, or — worker processes build their own — a single
// shared one that every slot's open breaker falls back to, one tile at
// a time.
func (env *runEnv) lanes(conn *connector, jobs int) ([]lane, error) {
	cfg := env.cfg
	local := func() (executor, error) {
		sim, err := litho.New(env.optics, cfg.window())
		if err != nil {
			return nil, fmt.Errorf("flow: %dpx window simulator: %w", cfg.window(), err)
		}
		sim.KOpt = cfg.KOpt
		return func(ctx context.Context, j tileJob, target *grid.Real, out *tileOut) {
			env.ladder(ctx, sim, j, target, out)
		}, nil
	}
	if conn == nil {
		lanes := make([]lane, tileWorkerCount(cfg.TileWorkers, jobs))
		for i := range lanes {
			exec, err := local()
			if err != nil {
				return nil, err
			}
			lanes[i] = lane{exec: exec, stop: func() {}}
		}
		return lanes, nil
	}
	ladder, err := local()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	shared := func(ctx context.Context, j tileJob, target *grid.Real, out *tileOut) {
		mu.Lock()
		defer mu.Unlock()
		ladder(ctx, j, target, out)
	}
	lanes := make([]lane, len(conn.hosts))
	for i, host := range conn.hosts {
		s := env.newSlot(i, host, conn, shared)
		lanes[i] = lane{exec: s.execute, stop: s.shutdown}
	}
	return lanes, nil
}

// reduce stitches the per-tile outputs in row-major tile order,
// regardless of completion order, and totals the run's counters from the
// tile stats. Cache lookups, failed dispatches and dropped bundles are
// this run's, so tiles replayed from the journal add none.
func (env *runEnv) reduce(outs []tileOut, workers int) *Result {
	cfg := env.cfg
	res := &Result{Tiles: len(outs), TileStats: make([]TileStat, 0, len(outs))}
	for i := range outs {
		st := &outs[i].stat
		res.Shots = append(res.Shots, outs[i].shots...)
		res.TileStats = append(res.TileStats, *st)
		switch st.Path {
		case PathPrimary:
			if st.Attempts > 1 {
				res.Retried++
			}
		case PathFallback:
			res.Fallbacks++
		case PathEmpty:
			res.Empty++
		}
		if st.Stalled {
			res.Stalled++
		}
		if st.Bundle != "" {
			res.Quarantined++
		}
		if st.Resumed {
			continue
		}
		res.LinkCrashes += st.ProcCrashes
		switch {
		case st.CacheHit:
			res.CacheHits++
		case st.CacheKey != "":
			res.CacheMisses++
		}
		if st.Path == PathEmpty && st.Bundle == "" && cfg.QuarantineDir != "" {
			res.QuarantineDropped++
		}
	}
	res.LinkBroken = int(env.linkBroken.Load())
	if cfg.Cache != nil {
		res.CacheBytes = cfg.Cache.Stats().Bytes
	}
	res.PeakBytes = PeakBytes(env.ix.Bytes(), workers, cfg.window(), len(res.Shots))
	res.CheckpointDegraded, res.CheckpointErr = env.journal.degraded()
	return res
}

// PeakBytes is the formula behind Result.PeakBytes — span index bytes,
// one float64 window target per tile worker, the stitched shot list —
// and server.EstimateCost's flow half. Per-worker window targets
// dominate: no term scales with GridN².
func PeakBytes(indexBytes int64, workers, window, shots int) int64 {
	const f64 = 8
	return indexBytes + int64(workers)*int64(window)*int64(window)*f64 +
		int64(shots)*24 // geom.Circle{X, Y, R}
}
