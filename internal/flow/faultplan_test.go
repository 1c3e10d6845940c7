package flow

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/procpool"
)

// Fault is one injected failure mode for a single optimizer attempt.
// Fields compose: Kill first, then Stall and Sleep, then Panic, then NaN
// and BadRadius.
type Fault struct {
	// Sleep blocks before anything else, respecting the attempt's
	// context so per-tile timeouts and run cancellation stay prompt.
	Sleep time.Duration
	// Panic aborts the attempt with a panic, exercising the isolation
	// recover path.
	Panic bool
	// NaN returns a NaN-poisoned shot list, exercising output validation.
	NaN bool
	// BadRadius returns one shot with a radius far outside any sane
	// [RMin, RMax] bound, exercising the radius check.
	BadRadius bool
	// Stall blocks until the attempt's context is canceled without ever
	// emitting a heartbeat — a wedged optimizer, the failure mode the
	// stall watchdog (Config.StallTimeout) exists to kill early.
	Stall bool
	// BeatEvery, when > 0, emits synthetic optimizer heartbeats at that
	// interval while the injected Sleep runs — the signature of a tile
	// that is slow but alive, which the stall watchdog must spare.
	BeatEvery time.Duration
	// Kill, when > 0, SIGKILLs the whole process — mid-tile, no reply,
	// no cleanup — while the tile's dispatch counter is below Kill, but
	// only inside a tile-worker subprocess (procpool.InWorker). Kill: 1
	// scripts one crash followed by a clean redispatch; a huge Kill
	// scripts a crash loop that must trip the supervisor's circuit
	// breaker. In-process runs ignore it, which is what lets one fault
	// plan drive a proc run and its serial reference to byte-identical
	// output.
	Kill int
}

// FaultPlan maps a tile index to its per-attempt fault scripts: attempt
// k of tile i suffers plan[i][k]; attempts past the end of the slice run
// clean. Keying on (tile, attempt) makes every failure → retry →
// fallback trajectory deterministic, which is what lets the tests demand
// byte-identical output across interrupted and uninterrupted runs.
type FaultPlan map[int][]Fault

// InjectFaults wraps an Optimizer with deterministic fault injection
// driven by the tile identity the flow publishes on sim.Ctx. Invocations
// outside a flow (no TileInfo on the context) pass through untouched.
func InjectFaults(opt Optimizer, plan FaultPlan) Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		info, ok := TileInfoFrom(sim.Ctx)
		if !ok {
			return opt(sim, target)
		}
		script := plan[info.Index]
		if info.Attempt >= len(script) {
			return opt(sim, target)
		}
		f := script[info.Attempt]
		if f.Kill > 0 && info.Dispatch < f.Kill && procpool.InWorker() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // SIGKILL cannot be handled
		}
		if f.Stall {
			// Wedge silently until killed: no heartbeats, no return.
			<-sim.Ctx.Done()
			return nil
		}
		if f.Sleep > 0 {
			if !sleepCtx(sim, f.Sleep, f.BeatEvery) {
				// Deadline or cancellation during the injected sleep:
				// the flow discards whatever returns on ctx.Err().
				return nil
			}
		}
		if f.Panic {
			panic(fmt.Sprintf("injected fault: tile %d attempt %d", info.Index, info.Attempt))
		}
		if f.NaN {
			return []geom.Circle{{X: math.NaN(), Y: 1, R: 1}}
		}
		if f.BadRadius {
			return []geom.Circle{{X: 1, Y: 1, R: 1e9}}
		}
		return opt(sim, target)
	}
}

// sleepCtx blocks for d, optionally emitting a synthetic heartbeat
// through sim every beatEvery, and reports whether the full sleep
// completed (false when sim's context was canceled first).
func sleepCtx(sim *litho.Simulator, d, beatEvery time.Duration) bool {
	ctx := sim.Ctx
	if beatEvery <= 0 || beatEvery > d {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	deadline := time.Now().Add(d)
	for beat := 0; ; beat++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return true
		}
		slice := beatEvery
		if slice > remaining {
			slice = remaining
		}
		t := time.NewTimer(slice)
		select {
		case <-t.C:
			sim.Beat(beat, 0)
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}

// withFaults wraps cfg's primary and fallback in plan, in this process:
// the serial reference, every in-process run, and the ladder a
// circuit-broken worker slot falls back to. Attempt indices are global
// per tile (the fallback is TileRetries+1), so one script drives the
// whole degradation trajectory.
func withFaults(cfg Config, plan FaultPlan) Config {
	cfg.Optimize = InjectFaults(cfg.Optimize, plan)
	if cfg.Fallback != nil {
		cfg.Fallback = InjectFaults(cfg.Fallback, plan)
	}
	return cfg
}

// faultPlanEnv names the file a worker subprocess or loopback TCP host
// spawned by these tests reads its fault plan from; testRunner reads it
// once per task, so a test can switch plans without respawning hosts.
const faultPlanEnv = "CFAOPC_TEST_FAULT_PLAN"

// workerFaultPlan writes plan to a fresh file and returns the
// environment entry that hands it to the workers a test spawns, and the
// file's path for writeFaultPlan.
func workerFaultPlan(t testing.TB, plan FaultPlan) (env, path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "faults.json")
	writeFaultPlan(t, path, plan)
	return faultPlanEnv + "=" + path, path
}

func writeFaultPlan(t testing.TB, path string, plan FaultPlan) {
	t.Helper()
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readWorkerFaultPlan is the worker side of faultPlanEnv: no variable, no
// plan.
func readWorkerFaultPlan() (FaultPlan, error) {
	path := os.Getenv(faultPlanEnv)
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var plan FaultPlan
	err = json.Unmarshal(data, &plan)
	return plan, err
}
