// Resource governance: the daemon's defense against overload. A
// deterministic cost model (EstimateCost) prices every job spec before
// admission; the Governor gates admissions against a configurable
// memory budget and walks an explicit degradation ladder when measured
// heap pressure says the budget math was optimistic anyway. The ladder
// is deliberately boring — shrink the window cache, pause admissions,
// shed the youngest over-budget running job — because every rung must
// be explainable in a 429 body and recoverable without a restart.
package server

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"cfaopc/internal/flow"
)

// Cost is the deterministic resource estimate of one job spec. It is a
// pure function of the spec and the layout's rect count: the same spec
// always prices the same, so admit/reject decisions are reproducible
// from the submission history alone.
type Cost struct {
	// PeakBytes is the total estimated resident bytes while the job
	// runs: FlowBytes plus the per-worker simulator working set
	// (kernel spectra, FFT scratch, adjoint fields).
	PeakBytes int64 `json:"peak_bytes"`
	// FlowBytes is the flow's own Result.PeakBytes formula
	// (flow.PeakBytes: span index + per-worker window targets +
	// stitched shot list) plus WriteMask's one band; it is the calibratable half of the
	// estimate — BENCH_flow.json records estimate-vs-actual ratios.
	FlowBytes int64 `json:"flow_bytes"`
	// Tiles is the uniform-plan window count.
	Tiles int `json:"tiles"`
	// IterUnits is the job's work budget in normalized optimizer
	// iterations (one unit ≈ one iteration over a 128 px window with 5
	// kernels). Retry-After math turns outstanding units into time.
	IterUnits int64 `json:"iter_units"`
}

// estShotsPerTile is the shot-list heuristic: how many core-owned
// shots an occupied window typically contributes. It only prices the
// 24-byte shot records, so even a 4x miss moves the estimate by well
// under the window-buffer term.
const estShotsPerTile = 192

// EstimateCost prices a normalized spec. rects is the resolved
// layout's rectangle count (the only layout-dependent input — Submit
// already resolves the layout to fail fast, so it is free).
//
// The flow half is flow.PeakBytes — span-index bytes, one window
// target per tile worker, the stitched shot list — at an estimated
// shot count, plus the one band WriteMask rasterizes at a time once the
// flow has returned. The simulator half prices what the flow
// deliberately does not count — per-worker kernel and FFT working sets
// of roughly (KOpt+4) complex window grids — because the daemon's heap
// carries both.
func EstimateCost(spec *JobSpec, rects int) Cost {
	const c128 = 16 // complex128
	window := spec.TileCore + 2*spec.TileHalo
	cols := (spec.GridN + spec.TileCore - 1) / spec.TileCore
	tiles := cols * cols
	workers := spec.TileWorkers
	if workers < 1 {
		workers = 1
	}
	win2 := int64(window) * int64(window)

	// Span index: one 32-byte span per rect per ~band touched (rects
	// are small vs bands, so 1.5 bands average) plus band headers.
	indexBytes := int64(rects)*48 + int64((spec.GridN+31)/32)*24

	flowBytes := flow.PeakBytes(indexBytes, workers, window, tiles*estShotsPerTile) + maskBandBytes(spec.GridN)

	sim := int64(workers) * int64(spec.KOpt+4) * win2 * c128

	// Normalized work: iterations × tiles, scaled by the per-iteration
	// FFT cost relative to the 128 px / 5-kernel reference window.
	units := int64(tiles) * int64(spec.Iters) * (win2*int64(spec.KOpt) + 1) / (128 * 128 * 5)
	if units < 1 {
		units = 1
	}
	return Cost{PeakBytes: flowBytes + sim, FlowBytes: flowBytes, Tiles: tiles, IterUnits: units}
}

// GovLevel is a rung of the degradation ladder. Levels only mean
// something relative to each other: admission and shedding compare
// against the named constants, never the numeric values.
type GovLevel int

const (
	// GovNormal: heap below the low watermark; everything admitted
	// that fits the budget.
	GovNormal GovLevel = iota
	// GovShrink: heap crossed the low watermark; the shared window
	// cache's memory tier is shrunk to give the allocator room.
	GovShrink
	// GovPause: heap crossed the high watermark; admissions pause
	// (429 + Retry-After) until pressure recedes.
	GovPause
	// GovShed: heap stayed over the high watermark through a full
	// monitor interval while paused; the youngest over-budget running
	// job is canceled to force the heap down.
	GovShed
)

func (l GovLevel) String() string {
	switch l {
	case GovShrink:
		return "shrink"
	case GovPause:
		return "pause"
	case GovShed:
		return "shed"
	default:
		return "normal"
	}
}

// ErrJobTooBig rejects a job whose estimated cost exceeds the entire
// budget: no amount of waiting makes it admissible, so it gets a
// typed 400, not a 429.
var ErrJobTooBig = errors.New("server: job cost exceeds the daemon's whole memory budget")

// AdmitError is a retryable admission rejection (429): the queue or
// budget is full now but drains. Reason is machine-readable and goes
// into the structured error body; RetryAfter is the deterministic
// drain estimate behind the Retry-After header.
type AdmitError struct {
	Reason     string // "over_budget" | "admission_paused"
	RetryAfter time.Duration
	msg        string
}

func (e *AdmitError) Error() string { return e.msg }

// nominalUnitNS is the assumed wall time of one normalized iteration
// unit, used only to turn outstanding work into a Retry-After hint.
// Deliberately pessimistic for a single-core host so clients back off
// long enough to matter.
const nominalUnitNS = 25 * int64(time.Millisecond)

// GovernorConfig sizes the governor. Zero values take defaults.
type GovernorConfig struct {
	// MemBudget bounds the summed Cost.PeakBytes of all admitted
	// (queued + running) jobs. Default 2 GiB.
	MemBudget int64
	// HeapHigh / HeapLow are the measured-heap watermarks the ladder
	// walks between. Defaults: HeapHigh = MemBudget, HeapLow = 3/4 of
	// HeapHigh. HeapLow must be below HeapHigh.
	HeapHigh, HeapLow int64
	// ReadHeap returns the live heap reading; nil means
	// runtime/metrics' /memory/classes/heap/objects:bytes. Tests
	// inject scripted readings here.
	ReadHeap func() int64
}

// governor owns admission accounting and the pressure ladder. It has
// its own lock so HTTP-path admission never contends with a running
// monitor pulse holding the manager lock.
type governor struct {
	mu       sync.Mutex
	budget   int64
	heapHigh int64
	heapLow  int64
	readHeap func() int64

	committed map[string]Cost // job id -> admitted cost
	bytes     int64           // sum of committed PeakBytes
	units     int64           // sum of committed IterUnits
	level     GovLevel
	lastHeap  int64

	shrinks     int64 // ladder entries into GovShrink
	pauses      int64 // ladder entries into GovPause
	rejected    int64 // admissions refused (over budget / paused / too big)
	transitions int64 // total ladder level changes
	// ended counts jobs by govCounter: deadline_exceeded, shed, or a run
	// the wedge watchdog ended. The noCounter slot is never read.
	ended [numCounters]int64
}

func newGovernor(cfg GovernorConfig) *governor {
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 2 << 30
	}
	if cfg.HeapHigh <= 0 {
		cfg.HeapHigh = cfg.MemBudget
	}
	if cfg.HeapLow <= 0 {
		cfg.HeapLow = cfg.HeapHigh * 3 / 4
	}
	if cfg.ReadHeap == nil {
		cfg.ReadHeap = liveHeapBytes
	}
	return &governor{
		budget:    cfg.MemBudget,
		heapHigh:  cfg.HeapHigh,
		heapLow:   cfg.HeapLow,
		readHeap:  cfg.ReadHeap,
		committed: map[string]Cost{},
	}
}

// liveHeapBytes reads the live-object heap size from runtime/metrics.
func liveHeapBytes() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// admit reserves cost for job id or rejects it. Rejections are typed:
// ErrJobTooBig can never succeed; *AdmitError carries the reason and
// a deterministic Retry-After derived from the outstanding admitted
// work (outstanding iteration units × the nominal unit time, clamped
// to [1s, 5m]) — a pure function of the admitted set, so the same
// history always produces the same hint.
func (g *governor) admit(id string, c Cost) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.PeakBytes > g.budget {
		g.rejected++
		return fmt.Errorf("%w: estimated %d bytes, budget %d", ErrJobTooBig, c.PeakBytes, g.budget)
	}
	if g.level >= GovPause {
		g.rejected++
		return &AdmitError{
			Reason:     "admission_paused",
			RetryAfter: g.retryAfterLocked(),
			msg: fmt.Sprintf("server: admissions paused (heap %d over high watermark %d)",
				g.lastHeap, g.heapHigh),
		}
	}
	if g.bytes+c.PeakBytes > g.budget {
		g.rejected++
		return &AdmitError{
			Reason:     "over_budget",
			RetryAfter: g.retryAfterLocked(),
			msg: fmt.Sprintf("server: job needs %d bytes but only %d of the %d budget is free",
				c.PeakBytes, g.budget-g.bytes, g.budget),
		}
	}
	g.reserveLocked(id, c)
	return nil
}

// force reserves without admission checks — the recovery path, where
// jobs were already admitted by a previous daemon life and must not be
// silently dropped just because the budget shrank across a restart.
func (g *governor) force(id string, c Cost) {
	g.mu.Lock()
	g.reserveLocked(id, c)
	g.mu.Unlock()
}

func (g *governor) reserveLocked(id string, c Cost) {
	if old, ok := g.committed[id]; ok {
		g.bytes -= old.PeakBytes
		g.units -= old.IterUnits
	}
	g.committed[id] = c
	g.bytes += c.PeakBytes
	g.units += c.IterUnits
}

// release frees a job's reservation; an unknown id is a no-op.
func (g *governor) release(id string) { g.end(id, noCounter) }

// govCounter names the /healthz counter a job's ending adds one to.
type govCounter int

const (
	noCounter govCounter = iota
	expiredCounter
	shedCounter
	wedgeCounter
	numCounters
)

// end releases a terminal job's reservation and counts how it ended:
// the one place a job leaves the governor.
func (g *governor) end(id string, c govCounter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cost, ok := g.committed[id]; ok {
		g.bytes -= cost.PeakBytes
		g.units -= cost.IterUnits
		delete(g.committed, id)
	}
	g.ended[c]++
}

// fairShare is one running slot's share of the budget.
func (g *governor) fairShare(slots int) int64 { return g.budget / int64(slots) }

func (g *governor) retryAfterLocked() time.Duration {
	return min(max(time.Duration(g.units*nominalUnitNS), time.Second), 5*time.Minute)
}

// retryAfter is the exported drain estimate, shared by the queue-full
// rejection path so every 429 prices waiting the same way.
func (g *governor) retryAfter() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retryAfterLocked()
}

// observe feeds one heap reading into the ladder and returns the
// transition, if any. Escalation: heap ≥ high goes to GovPause
// immediately and to GovShed one observation later if pressure holds
// (the shed rung re-arms every observation while pressure persists, so
// each pulse at GovShed may shed one more job). De-escalation: below
// high but at/above low settles at GovShrink; below low recovers to
// GovNormal. The caller performs the rung's side effects.
func (g *governor) observe(heap int64) (from, to GovLevel, changed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lastHeap = heap
	from = g.level
	switch {
	case heap >= g.heapHigh:
		if from >= GovPause {
			to = GovShed
		} else {
			to = GovPause
		}
	case heap >= g.heapLow:
		to = GovShrink
	default:
		to = GovNormal
	}
	if to == from {
		// Staying at GovShed while pressure holds still counts as a
		// shed trigger for the caller, but not as a transition.
		return from, to, false
	}
	g.level = to
	g.transitions++
	switch to {
	case GovShrink:
		if from < GovShrink {
			g.shrinks++
		}
	case GovPause:
		g.pauses++
	}
	return from, to, true
}

// GovernorHealth is the governor's /healthz section: budget math,
// ladder position, and the counters that tell an operator which rungs
// have fired since the daemon started.
type GovernorHealth struct {
	Budget        int64  `json:"budget"`         // admission byte budget
	Committed     int64  `json:"committed"`      // reserved bytes (queued + running)
	CommittedJobs int    `json:"committed_jobs"` // jobs holding reservations
	Level         string `json:"level"`          // normal | shrink | pause | shed
	HeapBytes     int64  `json:"heap_bytes"`     // last watermark reading
	HeapHigh      int64  `json:"heap_high"`
	HeapLow       int64  `json:"heap_low"`
	Shrinks       int64  `json:"shrinks,omitempty"`  // cache-shrink rung entries
	Pauses        int64  `json:"pauses,omitempty"`   // admission-pause rung entries
	Sheds         int64  `json:"sheds,omitempty"`    // running jobs shed
	Wedges        int64  `json:"wedges,omitempty"`   // runs the wedge watchdog ended
	Expired       int64  `json:"expired,omitempty"`  // jobs ended deadline_exceeded
	Rejected      int64  `json:"rejected,omitempty"` // admissions refused
	Transitions   int64  `json:"transitions,omitempty"`
}

func (g *governor) health() GovernorHealth {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorHealth{
		Budget:        g.budget,
		Committed:     g.bytes,
		CommittedJobs: len(g.committed),
		Level:         g.level.String(),
		HeapBytes:     g.lastHeap,
		HeapHigh:      g.heapHigh,
		HeapLow:       g.heapLow,
		Shrinks:       g.shrinks,
		Pauses:        g.pauses,
		Sheds:         g.ended[shedCounter],
		Wedges:        g.ended[wedgeCounter],
		Expired:       g.ended[expiredCounter],
		Rejected:      g.rejected,
		Transitions:   g.transitions,
	}
}
