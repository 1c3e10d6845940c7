package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

// passReport is one server.RunSpec call as seen from outside it.
type passReport struct {
	Dir        string  `json:"dir"` // holds shots.csv, mask.pgm and flow.ckpt
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	FirstTileS float64 `json:"first_tile_s"`
	Shots      int     `json:"shots"`
	OffPrimary int     `json:"off_primary"` // Fallbacks + Empty + Retried
	CacheHits  int     `json:"cache_hits"`
	CacheMiss  int     `json:"cache_misses"`
	PeakBytes  int64   `json:"peak_bytes"`

	RasterMS float64 `json:"raster_ms"` // Σ TileStat.RasterWall

	// Traced passes only.
	OptimizeS float64   `json:"optimize_s,omitempty"` // Σ tile spans
	TileMS    []float64 `json:"tile_ms,omitempty"`
	IterMS    []float64 `json:"iter_ms,omitempty"` // beat gaps
	AllocMB   float64   `json:"alloc_mb,omitempty"`
	Mallocs   float64   `json:"mallocs,omitempty"`
	Spans     []span    `json:"spans,omitempty"`
}

// childReport is what a child prints for the harness.
type childReport struct {
	ReadyUnixNano int64        `json:"ready_unix_nano"`
	Cold          passReport   `json:"cold"`
	Warm          []passReport `json:"warm,omitempty"`
	DiskWarm      *passReport  `json:"disk_warm,omitempty"`
}

type childArgs struct {
	workload string
	seed     int64
	dir      string
	traced   bool
	smoke    bool
	workers  int // overrides tile_workers when non-zero
}

// runChild is one repetition of an in-process workload in a process of
// its own, the way a `cfaopc -job` user runs it: set-up, then the timed
// call, with CPU and peak memory that belong to this repetition alone.
func runChild(a childArgs) error {
	p, err := planInproc(a.workload, a.seed, sizesFor(a.smoke))
	if err != nil {
		return err
	}
	spec, l, err := writeInputs(a.dir, p.layout, p.spec)
	if err != nil {
		return err
	}
	if a.workers > 0 {
		spec.TileWorkers = a.workers
	}
	if _, err := windowSim(l, spec.GridN, spec.TileCore+2*spec.TileHalo, spec.KOpt); err != nil {
		return err
	}
	rep := childReport{ReadyUnixNano: time.Now().UnixNano()}

	var cache *wcache.Cache
	cacheDir := filepath.Join(a.dir, "wcache")
	if p.cache {
		if cache, err = wcache.New(wcache.Config{Dir: cacheDir}); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if rep.Cold, err = runPass(ctx, l, spec, filepath.Join(a.dir, "cold"), cache, a.traced, a.workload); err != nil {
		return err
	}
	if p.cache {
		for i := 0; i < p.warm; i++ {
			w, err := runPass(ctx, l, spec, filepath.Join(a.dir, fmt.Sprintf("warm%02d", i)), cache, false, "")
			if err != nil {
				return err
			}
			rep.Warm = append(rep.Warm, w)
		}
		// A cache opened over the same directory has an empty memory
		// tier: every lookup reads an entry file back.
		fresh, err := wcache.New(wcache.Config{Dir: cacheDir})
		if err != nil {
			return err
		}
		dw, err := runPass(ctx, l, spec, filepath.Join(a.dir, "diskwarm"), fresh, false, "")
		if err != nil {
			return err
		}
		rep.DiskWarm = &dw
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// writeInputs puts the generated layout where the spec's layout ref
// points and reads both back the way the program under test does.
func writeInputs(dir string, l *layout.Layout, specJSON string) (*server.JobSpec, *layout.Layout, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	spec, err := server.ParseSpec(strings.NewReader(specJSON))
	if err != nil {
		return nil, nil, err
	}
	if spec.Layout != "" {
		if err := writeLayout(filepath.Join(dir, spec.Layout), l); err != nil {
			return nil, nil, err
		}
	}
	parsed, err := spec.ResolveLayout(dir)
	if err != nil {
		return nil, nil, err
	}
	return spec, parsed, nil
}

func writeLayout(path string, l *layout.Layout) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// windowSim builds the simulator the flow binds to a w-px window of a
// gridN-px chip; the first call per window size pays the kernel build.
func windowSim(l *layout.Layout, gridN, w, kopt int) (*litho.Simulator, error) {
	o := optics.Default()
	o.TileNM = float64(w) * float64(l.TileNM) / float64(gridN)
	sim, err := litho.New(o, w)
	if err != nil {
		return nil, err
	}
	sim.KOpt = kopt
	return sim, nil
}

type timedEvent struct {
	at time.Duration
	ev flow.Event
}

// runPass runs the spec once into dir and reports what it saw. The
// event sink only timestamps; spans are built after the call returns.
func runPass(ctx context.Context, l *layout.Layout, spec *server.JobSpec, dir string, cache *wcache.Cache, traced bool, job string) (passReport, error) {
	r := passReport{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	var (
		mu        sync.Mutex
		firstTile time.Duration
		events    []timedEvent
		start     time.Time
	)
	sink := func(ev flow.Event) {
		at := time.Since(start)
		mu.Lock()
		if ev.Kind == flow.EventTile && firstTile == 0 {
			firstTile = at
		}
		if traced {
			events = append(events, timedEvent{at, ev})
		}
		mu.Unlock()
	}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := selfCPU()
	start = time.Now()
	res, err := server.RunSpec(ctx, l, spec, server.RunOpts{
		Checkpoint: filepath.Join(dir, "flow.ckpt"),
		MaskPath:   filepath.Join(dir, "mask.pgm"),
		ShotsPath:  filepath.Join(dir, "shots.csv"),
		Events:     sink,
		Cache:      cache,
	})
	wall := time.Since(start)
	if err != nil {
		return r, err
	}
	r.WallS = wall.Seconds()
	r.CPUS = (selfCPU() - cpu0).Seconds()
	r.FirstTileS = firstTile.Seconds()
	r.Shots = len(res.Shots)
	r.OffPrimary = res.Fallbacks + res.Empty + res.Retried
	r.CacheHits, r.CacheMiss = res.CacheHits, res.CacheMisses
	r.PeakBytes = res.PeakBytes
	for _, ts := range res.TileStats {
		r.RasterMS += ms(ts.RasterWall)
	}
	if traced {
		runtime.ReadMemStats(&m1)
		r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		r.Mallocs = float64(m1.Mallocs - m0.Mallocs)
		r.Spans, r.TileMS, r.IterMS = flowSpans(job, wall, spec.TileWorkers, events)
		for _, t := range r.TileMS {
			r.OptimizeS += t / 1e3
		}
	}
	return r, nil
}

// flowSpans turns the timestamped event stream into job → tile →
// iteration spans and returns them with the tile and iteration
// durations. A tile span ends at its completion event. Its start is
// taken from outside too, because TileStat.Wall reads zero for tiles
// computed in-process at this commit: tiles are handed to workers in
// plan order as workers come free, so a tile started at the latest
// instant a worker came free that is not after the tile's first event.
// An iteration span is the gap between two beats of the same tile.
func flowSpans(job string, wall time.Duration, workers int, events []timedEvent) (spans []span, tileMS, iterMS []float64) {
	spans = []span{{ID: 1, Name: "job", Job: job, StartMS: 0, EndMS: ms(wall)}}
	beats := map[int][]time.Duration{}
	free := make([]time.Duration, workers)
	sort.SliceStable(events, func(i, k int) bool { return events[i].at < events[k].at })
	for _, e := range events {
		if e.ev.Kind == flow.EventBeat {
			beats[e.ev.Tile] = append(beats[e.ev.Tile], e.at)
			continue
		}
		firstSign := e.at
		if b := beats[e.ev.Tile]; len(b) > 0 {
			firstSign = b[0]
		}
		w := 0
		for i, f := range free {
			if f <= firstSign && (free[w] > firstSign || f > free[w]) {
				w = i
			}
		}
		begin := free[w]
		free[w] = e.at
		st := e.ev.Stat
		tile := span{
			ID: len(spans) + 1, Parent: 1, Name: "tile", Job: job, StartMS: ms(begin), EndMS: ms(e.at),
			Attrs: map[string]any{
				"tile": e.ev.Tile, "raster_ms": ms(st.RasterWall), "cache_hit": st.CacheHit,
				"path": st.Path, "occupied": st.Occupied, "shots": st.Shots, "stat_wall_ms": ms(st.Wall),
			},
		}
		spans = append(spans, tile)
		tileMS = append(tileMS, ms(e.at-begin))
		prev := begin
		for i, b := range beats[e.ev.Tile] {
			spans = append(spans, span{
				ID: len(spans) + 1, Parent: tile.ID, Name: "iteration", Job: job,
				StartMS: ms(prev), EndMS: ms(b), Attrs: map[string]any{"beat": i},
			})
			if i > 0 {
				iterMS = append(iterMS, ms(b-prev))
			}
			prev = b
		}
	}
	return spans, tileMS, iterMS
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
