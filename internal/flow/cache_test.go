package flow

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/quarantine"
	"cfaopc/internal/wcache"
)

// arrayLayout is the repeated-cell workload the dedup cache exists for:
// an 8×8 array whose pitch (1024/8 = 128 nm = 32 px at GridN 256) equals
// cacheConfig's CorePx, and whose default motif keeps a margin ≥ the
// halo — so all 64 windows are pixel-identical and share one cache key.
func arrayLayout() *layout.Layout {
	return layout.GenerateArray(8, 8, layout.ArrayConfig{TileNM: 1024})
}

const arrayCells = 64

// cacheConfig tiles the array layout cell-per-core with the cheap
// deterministic rule engine, so cache equivalence — not engine quality —
// is what the tests measure.
func cacheConfig() Config {
	cfg := testConfig()
	cfg.CorePx = 32
	cfg.HaloPx = 8
	cfg.Optimize = ruleFallback()
	return cfg
}

func mustCache(t *testing.T, cfg wcache.Config) *wcache.Cache {
	t.Helper()
	c, err := wcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheDeterminism is the issue's acceptance contract: over a
// repeated-cell array, runs with the cache on — cold, warm, parallel,
// proc-mode, and cross-process through the disk tier — produce shots
// and stats byte-identical to the uncached serial reference, while
// serving all but the first twin from the cache.
func TestCacheDeterminism(t *testing.T) {
	l := arrayLayout()
	refCfg := cacheConfig()
	refCfg.TileWorkers = 1
	ref, err := Run(l, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Shots) == 0 {
		t.Fatal("reference run produced no shots")
	}
	if ref.CacheHits != 0 || ref.CacheMisses != 0 || ref.CacheBytes != 0 {
		t.Fatalf("uncached reference recorded cache activity: %+v", ref)
	}
	for i, st := range ref.TileStats {
		if !st.Occupied {
			t.Fatalf("array tile %d unoccupied; the layout should fill every window", i)
		}
	}

	t.Run("serial-cold-then-warm", func(t *testing.T) {
		cache := mustCache(t, wcache.Config{})
		cfg := cacheConfig()
		cfg.TileWorkers = 1
		cfg.Cache = cache
		cold, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Serial cold run: tile 0 misses and stores, every twin hits —
		// the ≥ R·C−1 dedup the issue demands, inside a single cold run.
		if cold.CacheHits != arrayCells-1 || cold.CacheMisses != 1 {
			t.Fatalf("cold run hits=%d misses=%d, want %d/1", cold.CacheHits, cold.CacheMisses, arrayCells-1)
		}
		if cold.CacheBytes <= 0 {
			t.Fatalf("cold run CacheBytes = %d", cold.CacheBytes)
		}
		hit := 0
		for _, st := range cold.TileStats {
			if st.CacheKey == "" {
				t.Fatalf("tile %d has no cache key", st.Index)
			}
			if st.CacheHit {
				hit++
			}
		}
		if hit != arrayCells-1 {
			t.Fatalf("%d tiles marked CacheHit, want %d", hit, arrayCells-1)
		}
		sameResult(t, cold, ref)

		cfg = cacheConfig()
		cfg.TileWorkers = 1
		cfg.Cache = cache
		warm, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits != arrayCells || warm.CacheMisses != 0 {
			t.Fatalf("warm run hits=%d misses=%d, want %d/0", warm.CacheHits, warm.CacheMisses, arrayCells)
		}
		sameResult(t, warm, ref)
	})

	t.Run("parallel-cold", func(t *testing.T) {
		const workers = 8
		cfg := cacheConfig()
		cfg.TileWorkers = workers
		cfg.Cache = mustCache(t, wcache.Config{})
		res, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// At most the tiles in flight before the first store can miss.
		if res.CacheHits+res.CacheMisses != arrayCells {
			t.Fatalf("hits %d + misses %d != %d tiles", res.CacheHits, res.CacheMisses, arrayCells)
		}
		if res.CacheHits < arrayCells-workers {
			t.Fatalf("parallel cold run hit only %d of %d tiles", res.CacheHits, arrayCells)
		}
		sameResult(t, res, ref)
	})

	t.Run("proc-workers", func(t *testing.T) {
		const procs = 4
		cfg := cacheConfig()
		cfg.Fallback = ruleFallback()
		cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
		cfg.ProcWorkers = procs
		cfg.WorkerCmd = testWorkerCmd(t)
		cfg.Cache = mustCache(t, wcache.Config{})
		res, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits+res.CacheMisses != arrayCells {
			t.Fatalf("hits %d + misses %d != %d tiles", res.CacheHits, res.CacheMisses, arrayCells)
		}
		if res.CacheHits < arrayCells-procs {
			t.Fatalf("proc cold run hit only %d of %d tiles", res.CacheHits, arrayCells)
		}
		sameResult(t, res, ref)
	})

	t.Run("disk-cross-process", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wcache")
		first := mustCache(t, wcache.Config{Dir: dir})
		cfg := cacheConfig()
		cfg.TileWorkers = 1
		cfg.Cache = first
		if _, err := Run(l, cfg); err != nil {
			t.Fatal(err)
		}
		if s := first.Stats(); s.Puts != 1 || s.DiskErrs != 0 {
			t.Fatalf("first process cache stats: %+v", s)
		}

		// A fresh Cache over the same directory models a new process:
		// the single entry is promoted from disk, then memory serves the
		// remaining 63 twins.
		second := mustCache(t, wcache.Config{Dir: dir})
		cfg = cacheConfig()
		cfg.TileWorkers = 1
		cfg.Cache = second
		res, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits != arrayCells || res.CacheMisses != 0 {
			t.Fatalf("disk-warm run hits=%d misses=%d, want %d/0", res.CacheHits, res.CacheMisses, arrayCells)
		}
		if s := second.Stats(); s.DiskHits != 1 || s.BadDisk != 0 {
			t.Fatalf("second process cache stats: %+v", s)
		}
		sameResult(t, res, ref)
	})
}

// TestCacheMatrix is the CI cache-matrix entry point: cache mode and
// proc-worker count come from the environment (one cell per CI job, each
// under -race), or every cell runs when the variables are unset:
//
//	WCACHE=off|mem|disk (default all)
//	WCACHE_PROC_WORKERS=N (default runs 0 and 4)
func TestCacheMatrix(t *testing.T) {
	modes := []string{"off", "mem", "disk"}
	if v := os.Getenv("WCACHE"); v != "" && v != "all" {
		modes = []string{v}
	}
	procs := []int{0, 4}
	if v := os.Getenv("WCACHE_PROC_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			t.Fatalf("WCACHE_PROC_WORKERS = %q", v)
		}
		procs = []int{n}
	}

	l := arrayLayout()
	refCfg := cacheConfig()
	refCfg.TileWorkers = 1
	ref, err := Run(l, refCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range modes {
		for _, pw := range procs {
			t.Run(mode+"/procworkers="+strconv.Itoa(pw), func(t *testing.T) {
				mk := func() Config {
					cfg := cacheConfig()
					if pw > 0 {
						cfg.Fallback = ruleFallback()
						cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
						cfg.ProcWorkers = pw
						cfg.WorkerCmd = testWorkerCmd(t)
					} else {
						cfg.TileWorkers = 4
					}
					return cfg
				}
				var cache *wcache.Cache
				switch mode {
				case "mem":
					cache = mustCache(t, wcache.Config{})
				case "disk":
					cache = mustCache(t, wcache.Config{Dir: filepath.Join(t.TempDir(), "wcache")})
				}
				cfg := mk()
				cfg.Cache = cache
				cold, err := Run(l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, cold, ref)
				if mode == "off" {
					if cold.CacheHits != 0 || cold.CacheMisses != 0 {
						t.Fatalf("cache-off run recorded activity: %+v", cold)
					}
					return
				}
				if cold.CacheHits == 0 {
					t.Fatal("cold cached run recorded no hits over a repeated-cell array")
				}
				cfg = mk()
				cfg.Cache = cache
				warm, err := Run(l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if warm.CacheHits != arrayCells || warm.CacheMisses != 0 {
					t.Fatalf("warm run hits=%d misses=%d, want %d/0", warm.CacheHits, warm.CacheMisses, arrayCells)
				}
				sameResult(t, warm, ref)
			})
		}
	}
}

// TestCacheFaultDeterminismAndResume covers the cache × fault-envelope
// interplay: a tile with an injected fault script bypasses the cache in
// both directions even when its twins were cache-served, an interrupted
// cached run resumes through its checkpoint journal against a warm disk
// cache, and every variant stays byte-identical to the uncached faulted
// reference.
func TestCacheFaultDeterminismAndResume(t *testing.T) {
	l := arrayLayout()
	plan := FaultPlan{5: {{Panic: true}}} // tiles 1..4: cache-served twins; tile 5: faulted
	mk := func() Config {
		cfg := cacheConfig()
		cfg.TileRetries = 1
		cfg.TileWorkers = 1
		cfg.Faults = plan
		return cfg
	}

	ref, err := Run(l, mk())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Retried != 1 {
		t.Fatalf("reference summary: %+v", ref)
	}

	// Faulted tile among cached twins: 0 misses and stores, 1-4 (and
	// 6-63) hit, 5 re-optimizes outside the cache.
	dir := filepath.Join(t.TempDir(), "wcache")
	cfg := mk()
	cfg.Cache = mustCache(t, wcache.Config{Dir: dir})
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != arrayCells-2 || res.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", res.CacheHits, res.CacheMisses, arrayCells-2)
	}
	if st := res.TileStats[5]; st.CacheKey != "" || st.CacheHit || st.Attempts != 2 || st.Path != PathPrimary {
		t.Fatalf("faulted tile stat: %+v, want a cache-bypassed retried primary", st)
	}
	if st := res.TileStats[1]; !st.CacheHit {
		t.Fatalf("twin tile stat: %+v, want a cache hit", st)
	}
	sameResult(t, res, ref)

	// Interrupt the run at tile 5's healthy retry (the only tile that
	// still optimizes against the now-warm disk cache), then resume with
	// yet another fresh cache over the same directory.
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg = mk()
	cfg.Cache = mustCache(t, wcache.Config{Dir: dir})
	cfg.CheckpointPath = ckpt
	inner := cfg.Optimize
	cfg.Optimize = func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		if info, ok := TileInfoFrom(sim.Ctx); ok && info.Index == 5 {
			cancel()
			<-sim.Ctx.Done()
			return nil
		}
		return inner(sim, target)
	}
	if _, err := RunContext(ctx, l, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}

	cfg = mk()
	cfg.Cache = mustCache(t, wcache.Config{Dir: dir})
	cfg.CheckpointPath = ckpt
	res2, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 5 {
		t.Fatalf("resumed %d tiles, want 5", res2.Resumed)
	}
	// 58 fresh eligible tiles hit the warm disk cache; tile 5 recomputes
	// outside it (its fault script replays deterministically).
	if res2.CacheHits != arrayCells-6 || res2.CacheMisses != 0 {
		t.Fatalf("resumed run hits=%d misses=%d, want %d/0", res2.CacheHits, res2.CacheMisses, arrayCells-6)
	}
	sameResult(t, res2, ref)
}

// TestCacheCorruptDiskEntryDegradesToMiss proves the flow-level
// degradation contract for a rotten disk tier: a bit-flipped or
// truncated entry file turns into a miss plus recomputation — never a
// wrong tile — and the healed entry serves the next run.
func TestCacheCorruptDiskEntryDegradesToMiss(t *testing.T) {
	l := arrayLayout()
	ref, err := Run(l, func() Config { cfg := cacheConfig(); cfg.TileWorkers = 1; return cfg }())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncation", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wcache")
			cfg := cacheConfig()
			cfg.TileWorkers = 1
			cfg.Cache = mustCache(t, wcache.Config{Dir: dir})
			if _, err := Run(l, cfg); err != nil {
				t.Fatal(err)
			}
			entries, err := filepath.Glob(filepath.Join(dir, "*.wce"))
			if err != nil || len(entries) != 1 {
				t.Fatalf("disk entries = %v (err %v), want exactly one", entries, err)
			}
			tc.corrupt(t, entries[0])

			cache := mustCache(t, wcache.Config{Dir: dir})
			cfg = cacheConfig()
			cfg.TileWorkers = 1
			cfg.Cache = cache
			res, err := Run(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHits != arrayCells-1 || res.CacheMisses != 1 {
				t.Fatalf("hits=%d misses=%d, want %d/1", res.CacheHits, res.CacheMisses, arrayCells-1)
			}
			if s := cache.Stats(); s.BadDisk != 1 {
				t.Fatalf("BadDisk = %d, want 1", s.BadDisk)
			}
			sameResult(t, res, ref)

			// The recomputation healed the file: a third process gets a
			// clean disk hit.
			healed := mustCache(t, wcache.Config{Dir: dir})
			cfg = cacheConfig()
			cfg.TileWorkers = 1
			cfg.Cache = healed
			res2, err := Run(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res2.CacheHits != arrayCells || res2.CacheMisses != 0 {
				t.Fatalf("healed run hits=%d misses=%d, want %d/0", res2.CacheHits, res2.CacheMisses, arrayCells)
			}
			if s := healed.Stats(); s.DiskHits != 1 || s.BadDisk != 0 {
				t.Fatalf("healed cache stats: %+v", s)
			}
			sameResult(t, res2, ref)
		})
	}
}
