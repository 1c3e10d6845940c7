// Command cfaopc optimizes a single target layout end to end and emits the
// circular shot list, mask renders, and the metric report.
//
// Usage:
//
//	cfaopc -case 1 [flags]            # a synthetic benchmark case
//	cfaopc -layout path.glp [flags]   # a layout file
//
// Methods: circleopt (default), or a pixel baseline plus CircleRule
// fracturing via -method develset|neuralilt|multiilt.
//
// With -tile-core > 0 the layout is cut into halo-and-stitch windows and
// optimized through the tiled full-chip flow; -tile-workers bounds the
// windows optimized concurrently (output is identical at any count) and
// -workers the per-kernel litho parallelism inside each simulator.
//
// Tiled runs are fault-tolerant: SIGINT/SIGTERM cancels promptly, a tile
// that panics, times out (-tile-timeout) or emits invalid output is
// retried (-tile-retries), degraded to the -fallback method, then to an
// empty tile; -checkpoint journals completed tiles so an interrupted run
// resumes where it stopped with bit-identical output.
//
// Tiled runs are memory-bounded: windows are rasterized on demand from
// the rect geometry, -stream skips the dense stitched mask entirely, and
// -mask-out streams the mask to a PGM file in row bands, so peak memory
// scales with the window size, not the grid.
//
// With -proc-workers N tiles run in supervised worker subprocesses (the
// binary re-executes itself as its own worker, or -worker-bin names
// one), with -remote-hosts on tileworker -listen hosts — the same
// session either way: a crashed worker or dropped link costs one
// dispatch, not the run, and output stays byte-identical to the
// in-process flow.
//
// Tiled runs can skip repeated work: -window-cache mem|disk serves
// content-identical windows from a dedup cache (disk adds a persistent
// tier under -cache-dir that survives across runs), and -adaptive-tiles
// merges sparse 2×2 blocks, skips empty ones, and splits dense windows.
// Both change wall time only — the shot list stays byte-identical.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cfaopc/internal/bench"
	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/gds"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
	"cfaopc/internal/procworker"
	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfaopc: ")

	// Spawned as our own tile worker (the -proc-workers default): serve
	// the session on stdin/stdout and exit. Flags are ignored — every
	// knob a tile needs travels inside its task.
	procworker.ServeIfWorker()

	var (
		caseID      = flag.Int("case", 0, "synthetic benchmark case (1-10)")
		layoutPath  = flag.String("layout", "", "layout file (.glp) to optimize instead of a benchmark case")
		method      = flag.String("method", "circleopt", "circleopt | doseopt | develset | neuralilt | multiilt | greedy")
		gridN       = flag.Int("grid", 256, "simulation grid (pixels per tile side)")
		iters       = flag.Int("iters", 60, "optimization iterations")
		sampleNM    = flag.Float64("sample-dist", 32, "circle sample distance m in nm")
		gamma       = flag.Float64("gamma", 3, "CircleOpt sparsity weight")
		kOpt        = flag.Int("kopt", 5, "kernels used during optimization")
		workers     = flag.Int("workers", 0, "per-kernel litho goroutines (0/1 serial, -1 = all cores)")
		tileCore    = flag.Int("tile-core", 0, "tiled flow: core px owned per window (0 = single window)")
		tileHalo    = flag.Int("tile-halo", 32, "tiled flow: halo context px around each core")
		tileWorkers = flag.Int("tile-workers", 1, "tiled flow: concurrent windows (-1 = all cores); output is identical at any count")
		tileTimeout = flag.Duration("tile-timeout", 0, "tiled flow: per-tile optimizer attempt deadline (0 = none)")
		stallTO     = flag.Duration("stall-timeout", 0, "tiled flow: kill an attempt whose optimizer heartbeats stop for this long (0 = none; must not exceed -tile-timeout)")
		tileRetries = flag.Int("tile-retries", 1, "tiled flow: extra attempts for a failed tile before degrading")
		fallback    = flag.String("fallback", "circlerule", "tiled flow: degraded-tile method (any -method value, or 'none')")
		ckptPath    = flag.String("checkpoint", "", "tiled flow: journal completed tiles here and resume from it")
		ckptCompact = flag.Bool("checkpoint-compact", false, "compact the -checkpoint journal (drop superseded records) and exit without optimizing")
		partialEvry = flag.Int("partial-every", 0, "tiled flow: journal mid-tile optimizer snapshots every N iterations (0 = off; needs -checkpoint)")
		quarDir     = flag.String("quarantine-dir", "", "tiled flow: write a repro bundle here for every tile that degrades to empty (replay with cmd/replaytile)")
		quarMaxN    = flag.Int("quarantine-max-bundles", 0, "retention cap on quarantine bundles; oldest .qrb+.json pairs pruned first (0 = unlimited)")
		quarMaxB    = flag.Int64("quarantine-max-bytes", 0, "retention byte budget for quarantine .qrb files (0 = unlimited)")
		procWorkers = flag.Int("proc-workers", 0, "tiled flow: run tiles in this many supervised worker subprocesses (0 = in-process; overrides -tile-workers)")
		workerBin   = flag.String("worker-bin", "", "tiled flow: worker binary for -proc-workers (default: re-execute this binary)")
		remoteHosts = flag.String("remote-hosts", "", "tiled flow: comma-separated tileworker -listen addresses; tiles shard across them (excludes -proc-workers)")
		remoteSil   = flag.Duration("remote-silence", 0, "-remote-hosts / -proc-workers: drop a worker whose frames stop for this long and reconnect or respawn (0 = 10s default)")
		remoteBack  = flag.Duration("remote-backoff", 0, "-remote-hosts / -proc-workers: base reconnect/respawn backoff, doubled per consecutive failure (0 = 50ms default)")
		remoteLimit = flag.Int("remote-crash-limit", 0, "-remote-hosts / -proc-workers: consecutive failures before a worker slot's breaker opens and its tiles degrade to in-process (0 = 3 default)")
		winCache    = flag.String("window-cache", "off", "tiled flow: dedup identical windows — off | mem | disk (disk adds a persistent tier under -cache-dir)")
		cacheDir    = flag.String("cache-dir", "", "tiled flow: directory for the -window-cache disk tier (survives across runs)")
		adaptive    = flag.Bool("adaptive-tiles", false, "tiled flow: occupancy-adaptive tiling — merge sparse 2×2 blocks, skip empty ones, split dense windows (output stays deterministic)")
		stream      = flag.Bool("stream", false, "tiled flow: memory-bounded run — never materialize the dense stitched mask (skips the aerial-image metrics; shot list stays the output)")
		maskOut     = flag.String("mask-out", "", "tiled flow: stream the stitched mask to this PGM file in row bands (works with or without -stream)")
		compact     = flag.Bool("compact", false, "remove shots that are redundant for the final union (print-identical)")
		outDir      = flag.String("out", "out", "output directory")
		jobFile     = flag.String("job", "", "run a cfaopcd JSON job spec through the service engine ('-' = stdin); writes mask.pgm + shots.csv under -out")
		layoutRoot  = flag.String("layout-root", ".", "directory -job specs resolve layout refs under")
		strictIO    = flag.Bool("strict-storage", false, "tiled flow: fail the run on any checkpoint or quarantine write error instead of degrading (default: degrade and report)")
	)
	flag.Parse()

	// Reject incoherent flag combinations before any expensive work, with
	// the fix spelled out — a full-chip run should not die hours in on a
	// config error that was visible at launch.
	switch {
	case *stallTO < 0:
		log.Fatal("-stall-timeout must be >= 0")
	case *stallTO > 0 && *tileTimeout > 0 && *stallTO > *tileTimeout:
		log.Fatalf("-stall-timeout %s exceeds -tile-timeout %s: the wall deadline would always fire first; lower -stall-timeout or raise -tile-timeout", *stallTO, *tileTimeout)
	case *stallTO > 0 && *tileCore <= 0:
		log.Fatal("-stall-timeout needs the tiled flow; set -tile-core > 0")
	case *partialEvry < 0:
		log.Fatal("-partial-every must be >= 0")
	case *partialEvry > 0 && *ckptPath == "":
		log.Fatal("-partial-every journals mid-tile snapshots and needs -checkpoint <path>")
	case *ckptCompact && *ckptPath == "":
		log.Fatal("-checkpoint-compact needs -checkpoint <path> naming the journal to compact")
	case *quarDir != "" && *tileCore <= 0:
		log.Fatal("-quarantine-dir needs the tiled flow; set -tile-core > 0")
	case (*quarMaxN > 0 || *quarMaxB > 0) && *quarDir == "":
		log.Fatal("-quarantine-max-bundles / -quarantine-max-bytes bound a quarantine directory; set -quarantine-dir")
	case *quarMaxN < 0 || *quarMaxB < 0:
		log.Fatal("-quarantine-max-bundles and -quarantine-max-bytes must be >= 0")
	case *procWorkers < 0:
		log.Fatal("-proc-workers must be >= 0")
	case *procWorkers > 0 && *tileCore <= 0:
		log.Fatal("-proc-workers needs the tiled flow; set -tile-core > 0")
	case *workerBin != "" && *procWorkers <= 0:
		log.Fatal("-worker-bin only applies with -proc-workers > 0")
	case *remoteHosts != "" && *procWorkers > 0:
		log.Fatal("-remote-hosts and -proc-workers are mutually exclusive transports; pick one")
	case *remoteHosts != "" && *tileCore <= 0:
		log.Fatal("-remote-hosts needs the tiled flow; set -tile-core > 0")
	case (*remoteSil != 0 || *remoteBack != 0 || *remoteLimit != 0) && *remoteHosts == "" && *procWorkers <= 0:
		log.Fatal("-remote-silence / -remote-backoff / -remote-crash-limit only apply with -remote-hosts or -proc-workers")
	case *remoteSil < 0 || *remoteBack < 0 || *remoteLimit < 0:
		log.Fatal("-remote-silence, -remote-backoff, and -remote-crash-limit must be >= 0")
	case *winCache != "off" && *winCache != "mem" && *winCache != "disk":
		log.Fatalf("-window-cache %q: want off, mem, or disk", *winCache)
	case *winCache != "off" && *tileCore <= 0:
		log.Fatal("-window-cache needs the tiled flow; set -tile-core > 0")
	case *winCache == "disk" && *cacheDir == "":
		log.Fatal("-window-cache disk needs -cache-dir <path> for the persistent tier")
	case *cacheDir != "" && *winCache != "disk":
		log.Fatal("-cache-dir only applies with -window-cache disk")
	case *adaptive && *tileCore <= 0:
		log.Fatal("-adaptive-tiles needs the tiled flow; set -tile-core > 0")
	}
	if *quarDir != "" {
		// Probe writability now, not at the first quarantined tile.
		if err := os.MkdirAll(*quarDir, 0o755); err != nil {
			log.Fatalf("-quarantine-dir: %v", err)
		}
		probe := filepath.Join(*quarDir, ".cfaopc-probe")
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			log.Fatalf("-quarantine-dir is not writable: %v", err)
		}
		os.Remove(probe)
	}

	// Two-stage shutdown. The first SIGINT/SIGTERM drains the tiled
	// flow: no new tiles dispatch, in-flight tiles finish and are
	// checkpointed, and the run exits nonzero with a drained summary. A
	// second signal cancels hard — in-flight tiles stop within one
	// kernel convolution. A third falls through to the default handler.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainCh := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Print("signal: draining — in-flight tiles finish and checkpoint; signal again to cancel hard")
		close(drainCh)
		<-sigCh
		log.Print("signal: hard cancel")
		cancel()
		signal.Reset(os.Interrupt, syscall.SIGTERM)
	}()

	if *jobFile != "" {
		// Service parity mode: the spec runs through the same
		// server.RunSpec path the cfaopcd daemon uses, so the mask and
		// shot bytes here are the reference a daemon run must match.
		if *caseID != 0 || *layoutPath != "" {
			log.Fatal("-job carries its own target; drop -case / -layout")
		}
		runJobSpec(ctx, *jobFile, *layoutRoot, *outDir, *ckptPath, drainCh)
		return
	}

	var l *layout.Layout
	switch {
	case *layoutPath != "":
		f, err := os.Open(*layoutPath)
		if err != nil {
			log.Fatal(err)
		}
		var perr error
		if strings.HasSuffix(strings.ToLower(*layoutPath), ".gds") {
			l, perr = gds.Read(f, -1)
		} else {
			l, perr = layout.Parse(f)
		}
		f.Close()
		if perr != nil {
			log.Fatal(perr)
		}
	case *caseID >= 1 && *caseID <= 10:
		l = layout.GenerateSuite()[*caseID-1]
	default:
		log.Fatal("need -case 1..10 or -layout file.glp")
	}

	engOpts := engine.Options{Iters: *iters, Gamma: *gamma, SampleNM: *sampleNM}
	optimize, err := engine.For(*method, engOpts)
	if err != nil {
		log.Fatal(err)
	}

	if *ckptCompact {
		// Maintenance mode: rewrite the journal dropping superseded
		// records (duplicate tiles, stale partial snapshots), then exit.
		// The tiling flags must match the run that wrote the journal —
		// the fingerprint check enforces that.
		if *tileCore <= 0 {
			log.Fatal("-checkpoint-compact needs the original run's tiling flags (-tile-core > 0)")
		}
		dx := float64(l.TileNM) / float64(*gridN)
		stats, err := flow.CompactCheckpoint(l, flow.Config{
			GridN: *gridN, CorePx: *tileCore, HaloPx: *tileHalo,
			Optics: optics.Default(), KOpt: *kOpt, TileRetries: *tileRetries,
			RMinPx: 6 / dx, RMaxPx: 152 / dx,
			CheckpointPath: *ckptPath,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compacted %s: kept %d records, dropped %d, %d -> %d bytes\n",
			*ckptPath, stats.Kept, stats.Dropped, stats.BytesBefore, stats.BytesAfter)
		return
	}

	// Full-grid simulator: optimization target in single-window mode, and
	// the evaluator for the stitched result in tiled mode.
	cfg := optics.Default()
	cfg.TileNM = float64(l.TileNM)
	sim, err := litho.New(cfg, *gridN)
	if err != nil {
		log.Fatal(err)
	}
	sim.KOpt = *kOpt
	sim.Workers = *workers
	target := l.Rasterize(*gridN)

	var mask *grid.Real
	var shots []geom.Circle
	if *tileCore > 0 {
		var bandFile *pgmBandWriter
		fCfg := flow.Config{
			GridN:         *gridN,
			CorePx:        *tileCore,
			HaloPx:        *tileHalo,
			Optics:        optics.Default(),
			KOpt:          *kOpt,
			Workers:       *workers,
			TileWorkers:   *tileWorkers,
			Optimize:      optimize,
			TileRetries:   *tileRetries,
			TileTimeout:   *tileTimeout,
			StallTimeout:  *stallTO,
			PartialEvery:  *partialEvry,
			QuarantineDir: *quarDir,
			// Validation bounds follow the MRC radius window (12–76 nm),
			// scaled to window-grid pixels with a tolerance band so
			// borderline-legal shots degrade via MRC reporting, not
			// tile retries.
			RMinPx:         6 / sim.DX,
			RMaxPx:         152 / sim.DX,
			CheckpointPath: *ckptPath,
			// -stream drops the dense stitched mask; the shot list is the
			// product, and -mask-out can still write the mask in bands.
			KeepMask:             !*stream,
			Drain:                drainCh,
			QuarantineMaxBundles: *quarMaxN,
			QuarantineMaxBytes:   *quarMaxB,
			StrictStorage:        *strictIO,
		}
		fCfg.AdaptiveTiles = *adaptive
		var cache *wcache.Cache
		if *winCache != "off" {
			wc := wcache.Config{}
			if *winCache == "disk" {
				wc.Dir = *cacheDir
			}
			var err error
			if cache, err = wcache.New(wc); err != nil {
				log.Fatalf("-window-cache: %v", err)
			}
			fCfg.Cache = cache
		}
		if *procWorkers > 0 {
			bin := *workerBin
			if bin == "" {
				exe, err := os.Executable()
				if err != nil {
					log.Fatalf("-proc-workers: cannot locate own binary (%v); set -worker-bin", err)
				}
				bin = exe
			}
			fCfg.ProcWorkers = *procWorkers
			fCfg.WorkerCmd = func() *exec.Cmd {
				cmd := exec.Command(bin)
				cmd.Stderr = os.Stderr // worker diagnostics land on our stderr
				return cmd
			}
		}
		if *remoteHosts != "" {
			for _, h := range strings.Split(*remoteHosts, ",") {
				if h = strings.TrimSpace(h); h != "" {
					fCfg.RemoteHosts = append(fCfg.RemoteHosts, h)
				}
			}
			if len(fCfg.RemoteHosts) == 0 {
				log.Fatal("-remote-hosts: no addresses after splitting on commas")
			}
		}
		fCfg.LinkSilence = *remoteSil
		fCfg.LinkBackoff = *remoteBack
		fCfg.LinkCrashLimit = *remoteLimit
		if *maskOut != "" {
			var err error
			bandFile, err = newPGMBandWriter(*maskOut, *gridN)
			if err != nil {
				log.Fatal(err)
			}
			fCfg.MaskWriter = bandFile
		}
		fbName := ""
		if *fallback != "" && !strings.EqualFold(*fallback, "none") {
			fb, err := engine.For(*fallback, engOpts)
			if err != nil {
				log.Fatalf("-fallback: %v", err)
			}
			fCfg.Fallback = fb
			fbName = *fallback
		}
		// Engine metadata rides into quarantine bundles so replaytile can
		// rebuild this exact optimizer chain offline.
		fCfg.Engines = engine.Meta(*method, fbName, engOpts)
		res, err := flow.RunContext(ctx, l, fCfg)
		if errors.Is(err, flow.ErrDrained) {
			// Graceful shutdown: everything that finished is journaled;
			// no stitched output is written (the shot list is incomplete
			// by construction, and a partial band file would be torn).
			fmt.Printf("drained: %d of %d tiles completed and checkpointed; no stitched output written\n",
				res.Completed, res.Tiles)
			printLinkSummary(res)
			if *ckptPath != "" {
				fmt.Printf("resume: re-run with the same flags and -checkpoint %s\n", *ckptPath)
			}
			os.Exit(3)
		}
		if err != nil {
			log.Fatal(err)
		}
		if bandFile != nil {
			if err := bandFile.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("streamed mask bands to %s\n", *maskOut)
		}
		mask, shots = res.Mask, res.Shots
		occupied := 0
		for _, ts := range res.TileStats {
			if ts.Occupied {
				occupied++
			}
		}
		pool := fmt.Sprintf("tile-workers %d", *tileWorkers)
		if *procWorkers > 0 {
			pool = fmt.Sprintf("proc-workers %d", *procWorkers)
		}
		if n := len(fCfg.RemoteHosts); n > 0 {
			pool = fmt.Sprintf("remote-hosts %d", n)
		}
		fmt.Printf("flow: %d windows (%d occupied), %s, peak flow memory ≈ %.1f MB\n",
			res.Tiles, occupied, pool, float64(res.PeakBytes)/(1<<20))
		if *adaptive {
			fmt.Printf("adaptive: %d sparse blocks merged, %d dense windows split, %d empty tiles skipped\n",
				res.Merged, res.Split, res.Skipped)
		}
		if cache != nil {
			st := cache.Stats()
			fmt.Printf("cache: %d hits translated into place (%d from disk), %d misses, %d entries ≈ %.1f MB\n",
				res.CacheHits, st.DiskHits, res.CacheMisses, st.Entries, float64(res.CacheBytes)/(1<<20))
			if st.BadDisk+st.DiskErrs > 0 {
				note := ""
				if st.LastDiskErr != "" {
					note = " (last: " + st.LastDiskErr + ")"
				}
				fmt.Printf("cache: %d corrupt disk entries dropped, %d disk errors — each degraded to a miss%s\n",
					st.BadDisk, st.DiskErrs, note)
			}
		}
		for _, ts := range res.TileStats {
			if !ts.Occupied {
				continue
			}
			note := ""
			if ts.Proc {
				note = "  [proc]"
			}
			if ts.Host != "" {
				note += "  [" + ts.Host + "]"
			}
			if ts.Resumed {
				note += "  [resumed]"
			}
			if ts.CacheHit {
				note += "  [cached]"
			}
			if ts.Path != flow.PathPrimary {
				note += "  [" + ts.Path + "]"
			}
			if ts.Attempts > 1 {
				note += fmt.Sprintf("  [%d attempts: %s]", ts.Attempts, ts.Failure)
			}
			if ts.Stalled {
				note += "  [stalled]"
			}
			if ts.Bundle != "" {
				note += "  [quarantined: " + ts.Bundle + "]"
			}
			if ts.ProcCrashes > 0 {
				note += fmt.Sprintf("  [%d worker crashes]", ts.ProcCrashes)
			}
			fmt.Printf("  tile %2d core(%3d,%3d): shots %3d  wall %s%s\n",
				ts.Index, ts.CX, ts.CY, ts.Shots, ts.Wall.Round(time.Millisecond), note)
		}
		if res.Retried+res.Fallbacks+res.Empty+res.Resumed+res.Stalled > 0 {
			fmt.Printf("faults: %d retried, %d fallback, %d empty, %d resumed from checkpoint, %d stalled, %d quarantined\n",
				res.Retried, res.Fallbacks, res.Empty, res.Resumed, res.Stalled, res.Quarantined)
		}
		printLinkSummary(res)
		if res.CheckpointDegraded {
			fmt.Printf("storage: checkpoint journal failed mid-run (%s) — results are correct but this run cannot be resumed (-strict-storage to fail fast)\n",
				res.CheckpointErr)
		}
		if res.QuarantineDropped > 0 {
			fmt.Printf("storage: %d quarantine bundle(s) lost to write errors — forensics dropped, tiles unaffected (-strict-storage to fail fast)\n",
				res.QuarantineDropped)
		}
	} else {
		mask, shots = optimize(sim, target)
	}

	if *compact {
		if mask == nil {
			log.Fatal("-compact needs the dense mask; drop -stream")
		}
		before := len(shots)
		shots = fracture.CompactShots(*gridN, *gridN, shots)
		mask = geom.RasterizeCircles(*gridN, *gridN, shots)
		fmt.Printf("compaction: %d -> %d shots\n", before, len(shots))
	}

	// Streaming runs never materialize the dense mask, so the full-grid
	// aerial-image metrics are skipped; the shot list and MRC report are
	// the product (use -mask-out to stream the mask to disk).
	var printed *grid.Real
	if mask != nil {
		res := sim.Simulate(mask)
		printed = res.ZNom
		rep := metrics.Evaluate(l, res.ZNom, res.ZMax, res.ZMin, len(shots))
		fmt.Printf("%s / %s: L2 %.1f nm2, PVB %.1f nm2, EPE %d, shots %d\n",
			l.Name, *method, rep.L2, rep.PVB, rep.EPE, rep.Shots)
	} else {
		fmt.Printf("%s / %s: shots %d (streamed: dense-mask metrics skipped)\n",
			l.Name, *method, len(shots))
	}
	if v := metrics.CheckCircleMRC(shots, sim.DX, 12, 76); len(v) > 0 {
		fmt.Printf("MRC: %d violations (first: shot %d, %s)\n", len(v), v[0].Shot, v[0].Reason)
	} else {
		fmt.Println("MRC: clean")
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Order shots to minimize beam travel before hand-off.
	shots = fracture.OrderShots(shots)
	shotPath := filepath.Join(*outDir, l.Name+"_shots.csv")
	sf, err := os.Create(shotPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := fracture.WriteShotsCSV(sf, shots, sim.DX); err != nil {
		log.Fatal(err)
	}
	sf.Close()

	for name, g := range map[string]*grid.Real{
		"target": target, "mask": mask, "printed": printed,
	} {
		if g == nil {
			continue // streamed run: no dense mask or print to render
		}
		p := filepath.Join(*outDir, fmt.Sprintf("%s_%s.png", l.Name, name))
		if err := bench.GridPNG(g, p); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %s and renders under %s/\n", shotPath, *outDir)
}

// printLinkSummary reports what the worker slots survived; a healthy or
// in-process run prints nothing.
func printLinkSummary(res *flow.Result) {
	if res.LinkCrashes > 0 || res.LinkBroken > 0 {
		fmt.Printf("workers: %d failed dispatches survived, %d breaker openings degraded tiles to in-process\n",
			res.LinkCrashes, res.LinkBroken)
	}
}

// runJobSpec executes one cfaopcd job spec via the shared service
// engine and writes the service artifacts (mask.pgm, shots.csv) under
// outDir. The drain channel gives -job runs the same two-stage
// shutdown as flag-driven tiled runs.
func runJobSpec(ctx context.Context, jobFile, layoutRoot, outDir, ckptPath string, drainCh <-chan struct{}) {
	var in *os.File
	if jobFile == "-" {
		in = os.Stdin
	} else {
		var err error
		if in, err = os.Open(jobFile); err != nil {
			log.Fatal(err)
		}
		defer in.Close()
	}
	spec, err := server.ParseSpec(in)
	if err != nil {
		log.Fatal(err)
	}
	l, err := spec.ResolveLayout(layoutRoot)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	res, err := server.RunSpec(ctx, l, spec, server.RunOpts{
		Checkpoint: ckptPath,
		MaskPath:   filepath.Join(outDir, "mask.pgm"),
		ShotsPath:  filepath.Join(outDir, "shots.csv"),
		Drain:      drainCh,
	})
	if errors.Is(err, flow.ErrDrained) {
		fmt.Printf("drained: %d of %d tiles completed and checkpointed; no output written\n",
			res.Completed, res.Tiles)
		if ckptPath != "" {
			fmt.Printf("resume: re-run with the same spec and -checkpoint %s\n", ckptPath)
		}
		os.Exit(3)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s / %s: %d windows, shots %d; wrote %s and %s\n",
		l.Name, spec.Method, res.Tiles, len(res.Shots),
		filepath.Join(outDir, "mask.pgm"), filepath.Join(outDir, "shots.csv"))
}

// pgmBandWriter streams the stitched mask to disk as a binary PGM (P5),
// one flow band at a time, so writing the mask of an arbitrarily large
// grid never holds more than one band in memory. Bands arrive from the
// flow in top-to-bottom order; Close verifies every row landed.
type pgmBandWriter struct {
	f    *os.File
	w    *bufio.Writer
	n    int
	next int // next expected global row
	buf  []byte
}

func newPGMBandWriter(path string, n int) (*pgmBandWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", n, n); err != nil {
		f.Close()
		return nil, err
	}
	return &pgmBandWriter{f: f, w: w, n: n, buf: make([]byte, n)}, nil
}

func (p *pgmBandWriter) WriteBand(y0 int, band *grid.Real) error {
	if y0 != p.next || band.W != p.n {
		return fmt.Errorf("pgm: band at row %d (width %d), expected row %d width %d", y0, band.W, p.next, p.n)
	}
	for y := 0; y < band.H; y++ {
		for x := 0; x < p.n; x++ {
			if band.Data[y*p.n+x] > 0.5 {
				p.buf[x] = 255
			} else {
				p.buf[x] = 0
			}
		}
		if _, err := p.w.Write(p.buf); err != nil {
			return err
		}
	}
	p.next += band.H
	return nil
}

func (p *pgmBandWriter) Close() error {
	if p.next != p.n {
		p.f.Close()
		return fmt.Errorf("pgm: only %d of %d rows streamed", p.next, p.n)
	}
	if err := p.w.Flush(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
