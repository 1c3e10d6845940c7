package flow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/testkit/faultfs"
	"cfaopc/internal/wcache"
)

// storageConfig is the cheap deterministic config the storage-fault and
// crash-consistency harnesses run: rule-engine tiles over quadLayout so
// dozens of full runs cost seconds, not minutes. GridN 128 / CorePx 64
// puts one occupied feature in each of the four windows.
func storageConfig() Config {
	cfg := testConfig()
	cfg.GridN = 128
	cfg.CorePx = 64
	cfg.HaloPx = 16
	cfg.KOpt = 3
	cfg.Optimize = ruleFallback()
	cfg.TileWorkers = 1 // deterministic journal op order for the recorder
	return cfg
}

// TestCheckpointAppendFailureDegrades: mid-run ENOSPC on the checkpoint
// journal degrades the run to un-resumable-but-correct — identical
// shots, CheckpointDegraded set — instead of failing it.
func TestCheckpointAppendFailureDegrades(t *testing.T) {
	l := quadLayout()
	ref, err := Run(l, storageConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := storageConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "flow.ckpt")
	// Admit the journal birth (magic + header ≈ tens of bytes) and the
	// first tile record, then run dry.
	cfg.FS = faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 600})
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatalf("checkpoint ENOSPC must degrade, not fail: %v", err)
	}
	if !res.CheckpointDegraded || res.CheckpointErr == "" {
		t.Fatalf("degradation not reported: %+v", res)
	}
	if !reflect.DeepEqual(res.Shots, ref.Shots) {
		t.Fatal("degraded run's shots differ from reference")
	}
	// The torn journal must still open cleanly for the next run: every
	// record before the fault replays, the torn tail is dropped.
	res2, err := Run(l, mustCkptConfig(t, cfg.CheckpointPath))
	if err != nil {
		t.Fatalf("resume after degraded run: %v", err)
	}
	if !reflect.DeepEqual(res2.Shots, ref.Shots) {
		t.Fatal("resume after degraded run diverged")
	}
}

func mustCkptConfig(t *testing.T, path string) Config {
	t.Helper()
	cfg := storageConfig()
	cfg.CheckpointPath = path
	return cfg
}

// TestStorageDegradeNeverFailsRun is the acceptance criterion verbatim:
// injected ENOSPC/EIO on the wcache disk tier or the quarantine dir
// never fails a run, and the shots stay byte-identical to a fault-free
// reference.
func TestStorageDegradeNeverFailsRun(t *testing.T) {
	l := quadLayout()
	ref, err := Run(l, storageConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"enospc", "eio-sync"} {
		t.Run("wcache-"+kind, func(t *testing.T) {
			plan, err := faultfs.PlanForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			plan.WriteBudget = minBudget(plan.WriteBudget, 64)
			if plan.FailSyncAt > 0 {
				plan.FailSyncAt = 1
			}
			dir := filepath.Join(t.TempDir(), "cache")
			plan.PathSubstr = dir
			ff := faultfs.NewFaultFS(nil, plan)
			cache, err := wcache.New(wcache.Config{Dir: dir, FS: ff})
			if err != nil {
				t.Fatal(err)
			}
			cfg := storageConfig()
			cfg.Cache = cache
			res, err := Run(l, cfg)
			if err != nil {
				t.Fatalf("wcache %s fault failed the run: %v", kind, err)
			}
			if !reflect.DeepEqual(res.Shots, ref.Shots) {
				t.Fatalf("wcache %s fault changed the shots", kind)
			}
			st := cache.Stats()
			if st.DiskErrs == 0 || st.LastDiskErr == "" {
				t.Fatalf("fault did not register in cache stats: %+v", st)
			}
		})
		t.Run("quarantine-"+kind, func(t *testing.T) {
			plan, err := faultfs.PlanForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			plan.WriteBudget = minBudget(plan.WriteBudget, 64)
			if plan.FailSyncAt > 0 {
				plan.FailSyncAt = 1
			}
			qdir := filepath.Join(t.TempDir(), "quarantine")
			plan.PathSubstr = qdir
			cfg := storageConfig()
			cfg.Optimize = ruleFallback()
			cfg.Fallback = nil
			cfg.QuarantineDir = qdir
			cfg = withFaults(cfg, FaultPlan{0: {{Panic: true}}})
			cfg.FS = faultfs.NewFaultFS(nil, plan)
			res, err := Run(l, cfg)
			if err != nil {
				t.Fatalf("quarantine %s fault failed the run: %v", kind, err)
			}
			if res.Empty != 1 {
				t.Fatalf("want the faulted tile empty, got %d", res.Empty)
			}
			if res.QuarantineDropped == 0 {
				t.Fatalf("bundle loss not counted: %+v", res)
			}
		})
	}
}

func minBudget(a, b int64) int64 {
	if a == 0 || b < a {
		return b
	}
	return a
}

// TestCanceledRunSyncsJournal: a canceled run fsyncs its checkpoint
// journal after the last tile it appended, so what finished before the
// cancel survives a crash, not only the page cache. A run that finishes
// issues no fsync on the journal at all.
func TestCanceledRunSyncsJournal(t *testing.T) {
	l := quadLayout()
	for _, canceled := range []bool{false, true} {
		root := t.TempDir()
		rec := faultfs.NewRecorder(nil, root)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := storageConfig()
		cfg.FS = rec
		cfg.CheckpointPath = filepath.Join(root, "flow.ckpt")
		if canceled {
			// Tile 0 finishes and is journaled on the one lane; tile 1
			// heartbeats until the run is canceled on its first beat.
			cfg = withFaults(cfg, FaultPlan{1: {{Sleep: 10 * time.Second, BeatEvery: 10 * time.Millisecond}}})
			cfg.Events = func(ev Event) {
				if ev.Kind == EventBeat && ev.Tile == 1 {
					cancel()
				}
			}
		}
		_, err := RunContext(ctx, l, cfg)
		if canceled != errors.Is(err, context.Canceled) || !canceled && err != nil {
			t.Fatalf("canceled=%v: run err %v", canceled, err)
		}
		lastWrite, lastSync, writes := -1, -1, 0
		for i, op := range rec.Ops() {
			if op.Path != "flow.ckpt" {
				continue
			}
			switch op.Kind {
			case faultfs.OpWrite:
				lastWrite, writes = i, writes+1
			case faultfs.OpSync:
				lastSync = i
			}
		}
		switch {
		case writes < 3: // magic, header, at least one tile record
			t.Fatalf("canceled=%v: %d journal writes, want a tile record after the header", canceled, writes)
		case canceled && lastSync < lastWrite:
			t.Errorf("canceled run: no fsync after the journal's last append (op %d, last sync %d)", lastWrite, lastSync)
		case !canceled && lastSync >= 0:
			t.Errorf("finished run fsynced its journal (op %d)", lastSync)
		}
	}
}

// TestCrashConsistency is the flow half of the tentpole harness: record
// every filesystem mutation of a checkpointed run, then for EVERY
// write-op prefix (plus a torn variant of each journal write)
// materialize the crash state into a scratch dir and resume from it.
// Recovery must always be a clean run with byte-identical shots, or an
// explicit typed error — never corruption, never divergence.
func TestCrashConsistency(t *testing.T) {
	l := quadLayout()
	ref, err := Run(l, storageConfig())
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	rec := faultfs.NewRecorder(nil, root)
	cfg := storageConfig()
	cfg.FS = rec
	cfg.CheckpointPath = filepath.Join(root, "flow.ckpt")
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Shots, ref.Shots) {
		t.Fatal("recorded run diverged from reference")
	}
	ops := rec.Ops()
	if len(ops) < 6 { // create + magic + header + ≥4 tile records expected
		t.Fatalf("recorder captured only %d ops", len(ops))
	}

	resumeFrom := func(t *testing.T, dir string) {
		t.Helper()
		cfg := storageConfig()
		cfg.CheckpointPath = filepath.Join(dir, "flow.ckpt")
		res, err := Run(l, cfg)
		if err != nil {
			// A crash prefix may leave any valid-or-torn journal state;
			// the only acceptable failures are the typed ones recovery
			// is documented to return.
			if errors.Is(err, checkpoint.ErrHeaderMismatch) ||
				strings.Contains(err.Error(), "not a journal") ||
				strings.Contains(err.Error(), "corrupt checkpoint record") {
				return
			}
			t.Fatalf("untyped recovery failure: %v", err)
		}
		if !reflect.DeepEqual(res.Shots, ref.Shots) {
			t.Fatal("recovered run's shots diverged from reference")
		}
		everyTileDone(t, res)
	}

	stride := 1
	if testing.Short() {
		stride = 2
	}
	for n := 0; n <= len(ops); n += stride {
		n := n
		t.Run(fmt.Sprintf("prefix-%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := faultfs.Materialize(dir, ops, n); err != nil {
				t.Fatal(err)
			}
			resumeFrom(t, dir)
		})
	}
	// Torn variants: the crash hit mid-write, leaving half the payload.
	for _, n := range faultfs.WriteBoundaries(ops) {
		if ops[n-1].Kind != faultfs.OpWrite || len(ops[n-1].Data) < 2 {
			continue
		}
		n := n
		t.Run(fmt.Sprintf("torn-%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := faultfs.MaterializeTorn(dir, ops, n, len(ops[n-1].Data)/2); err != nil {
				t.Fatal(err)
			}
			resumeFrom(t, dir)
		})
	}

	// Sanity: the final materialized journal byte-equals the live one.
	finalDir := t.TempDir()
	if err := faultfs.Materialize(finalDir, ops, len(ops)); err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(filepath.Join(finalDir, "flow.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(replayed) {
		t.Fatal("materialized journal differs from the live file")
	}
}
