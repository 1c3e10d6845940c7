// Command cfaopc optimizes a single target layout end to end and emits the
// circular shot list, the metric report computed from that shot list, and
// mask renders.
//
// Usage:
//
//	cfaopc -case 1 [flags]            # a synthetic benchmark case
//	cfaopc -layout path.glp [flags]   # a layout file
//	cfaopc -job spec.json [flags]     # a cfaopcd job spec ('-' = stdin)
//
// The flags that say what to compute are the keys of a job spec; -job
// reads the same spec as JSON, and both take the daemon's run path
// (JobSpec.FlowConfig, then server.Run), so all three yield the same
// bytes. Every other flag says how and where this process runs it, and
// every flag applies to every run.
//
// Methods: circleopt (default), or a pixel baseline plus CircleRule
// fracturing via -method develset|neuralilt|multiilt.
//
// The layout is cut into halo-and-stitch windows of -tile-core px and
// optimized through the full-chip flow; without -tile-core it is one
// window owning the whole grid, a one-tile run of the same flow.
// -tile-workers bounds the windows optimized concurrently (output is
// identical at any count); windows are the only unit of parallelism.
//
// Runs are fault-tolerant: SIGINT/SIGTERM cancels promptly and exits 3
// (a second signal kills), a tile that panics, times out (-tile-timeout)
// or emits invalid output is retried (-tile-retries), degraded to the
// -fallback method, then to an empty tile; -checkpoint journals
// completed tiles, and fsyncs them when the run is interrupted, so an
// interrupted run resumes where it stopped with bit-identical output.
//
// Runs are memory-bounded: windows are rasterized on demand from the
// rect geometry, -stream skips the dense stitched mask entirely, and
// -mask-out rasterizes the finished shot list to a PGM file one row
// band at a time, so peak memory scales with the window size, not the
// grid.
//
// With -proc-workers N tiles run in supervised worker subprocesses (the
// binary re-executes itself as its own worker), with -remote-hosts on
// tileworker -listen hosts — the same session either way: a crashed
// worker or dropped link costs one dispatch, not the run, and output
// stays byte-identical to the in-process flow. A tile that degrades to
// empty under -quarantine-dir leaves a bundle that tileworker replays.
//
// Runs can skip repeated work: -window-cache mem|disk serves
// content-identical windows from a dedup cache (disk adds a persistent
// tier under -cache-dir that survives across runs). It changes wall time
// only — the shot list stays byte-identical.
package main

import (
	"context"
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

	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
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

	// What to compute. These flags are bound to the fields of a job spec,
	// and their defaults are a normalized empty spec's, so the wire format
	// and the command line cannot disagree about a default — except
	// -tile-core, where the CLI's own default is one window over the grid.
	var spec server.JobSpec
	spec.Normalize()
	spec.TileCore = 0
	flag.IntVar(&spec.Case, "case", 0, "synthetic benchmark case (1-10)")
	layoutPath := flag.String("layout", "", "layout file (.glp or .gds) to optimize instead of a benchmark case")
	flag.StringVar(&spec.Method, "method", spec.Method, "circleopt | develset | neuralilt | multiilt | greedy | circlerule")
	flag.StringVar(&spec.Fallback, "fallback", spec.Fallback, "degraded-tile method (any -method value, or 'none')")
	flag.IntVar(&spec.GridN, "grid", spec.GridN, "simulation grid (pixels across the layout)")
	flag.IntVar(&spec.TileCore, "tile-core", 0, "core px owned per window (0 = one window owning the whole grid)")
	flag.IntVar(&spec.TileHalo, "tile-halo", spec.TileHalo, "halo context px around each core")
	flag.IntVar(&spec.Iters, "iters", spec.Iters, "optimization iterations")
	flag.IntVar(&spec.TileWorkers, "tile-workers", spec.TileWorkers, "concurrent windows (1-64); output is identical at any count")
	specFlags := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) { specFlags[f.Name] = true })

	// How and where to run it here.
	var (
		jobFile     = flag.String("job", "", "read the spec from a cfaopcd JSON job file instead of the flags above ('-' = stdin); writes mask.pgm + shots.csv under -out")
		layoutRoot  = flag.String("layout-root", ".", "directory -job specs resolve layout refs under")
		tileTimeout = flag.Duration("tile-timeout", 0, "per-tile optimizer attempt deadline (0 = none)")
		stallTO     = flag.Duration("stall-timeout", 0, "kill an attempt whose optimizer heartbeats stop for this long (0 = none; must not exceed -tile-timeout)")
		tileRetries = flag.Int("tile-retries", 1, "extra attempts for a failed tile before degrading (part of the checkpoint fingerprint)")
		ckptPath    = flag.String("checkpoint", "", "journal completed tiles here and resume from it")
		quarDir     = flag.String("quarantine-dir", "", "write a repro bundle here for every tile that degrades to empty (replay with tileworker bundle.qrb)")
		procWorkers = flag.Int("proc-workers", 0, "run tiles in this many supervised worker subprocesses (0 = in-process; overrides -tile-workers)")
		remoteHosts = flag.String("remote-hosts", "", "comma-separated tileworker -listen addresses; tiles shard across them (excludes -proc-workers)")
		winCache    = flag.String("window-cache", "off", "dedup identical windows — off | mem | disk (disk adds a persistent tier under -cache-dir)")
		cacheDir    = flag.String("cache-dir", "", "directory for the -window-cache disk tier (survives across runs)")
		stream      = flag.Bool("stream", false, "memory-bounded run — never materialize a dense full-grid raster (skips the aerial-image metrics and renders; shot list stays the output)")
		maskOut     = flag.String("mask-out", "", "after the run, write the mask the shot list prints to this PGM file, one row band at a time (works with or without -stream)")
		outDir      = flag.String("out", "out", "output directory")
	)
	flag.Parse()

	// Reject an incoherent command line before any expensive work, with
	// the fix spelled out — a full-chip run should not die hours in on a
	// config error that was visible at launch. Ranges are checked where
	// they are defined, by JobSpec.Validate and flow.Config.
	haloGiven := false
	flag.Visit(func(f *flag.Flag) {
		haloGiven = haloGiven || f.Name == "tile-halo"
		switch val := f.Value.String(); {
		case *jobFile != "" && specFlags[f.Name]:
			log.Fatalf("-job carries the whole spec; drop -%s or move it into the JSON", f.Name)
		case specFlags[f.Name] && (val == "0" || val == "") && f.DefValue != val:
			log.Fatalf("-%s %q: a job spec reads that as \"use the default\" (%s); omit the flag", f.Name, val, f.DefValue)
		}
	})
	switch {
	case *winCache != "off" && *winCache != "mem" && *winCache != "disk":
		log.Fatalf("-window-cache %q: want off, mem, or disk", *winCache)
	case (*winCache == "disk") != (*cacheDir != ""):
		log.Fatal("-window-cache disk and -cache-dir <path> go together: the directory is the persistent tier")
	}
	if *quarDir != "" {
		// Probe writability now, not at the first quarantined tile.
		if err := os.MkdirAll(*quarDir, 0o755); err != nil {
			log.Fatalf("-quarantine-dir: %v", err)
		}
		if err := probeWritable(*quarDir); err != nil {
			log.Fatalf("-quarantine-dir is not writable: %v", err)
		}
	}

	// Either source goes through the wire format's Normalize and Validate.
	if *jobFile != "" {
		spec = *readSpec(*jobFile)
	} else {
		if *layoutPath != "" {
			// A path typed on the command line is trusted; the spec's
			// layout ref is its base name under the directory it sits in.
			*layoutRoot, spec.Layout = filepath.Split(*layoutPath)
		}
		oneWindow := spec.TileCore == 0
		spec.Normalize()
		if oneWindow {
			// One tile owning the whole grid has nothing outside it to
			// see, so no halo; a -tile-halo beside it makes the window
			// exceed the grid, which Validate refuses.
			spec.TileCore = spec.GridN
			if !haloGiven {
				spec.TileHalo = 0
			}
		}
		if err := spec.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	l, err := spec.ResolveLayout(*layoutRoot)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := spec.FlowConfig(l)
	if err != nil {
		log.Fatal(err)
	}

	// The run-local flags land on the flow.Config fields that own them.
	cfg.TileRetries, cfg.TileTimeout, cfg.StallTimeout = *tileRetries, *tileTimeout, *stallTO
	cfg.QuarantineDir = *quarDir
	if *procWorkers > 0 {
		bin, err := os.Executable()
		if err != nil {
			log.Fatalf("-proc-workers: cannot locate own binary: %v", err)
		}
		cfg.ProcWorkers = *procWorkers
		cfg.WorkerCmd = func() *exec.Cmd {
			cmd := exec.Command(bin)
			cmd.Stderr = os.Stderr // worker diagnostics land on our stderr
			return cmd
		}
	}
	if *remoteHosts != "" {
		cfg.RemoteHosts = strings.FieldsFunc(*remoteHosts, func(r rune) bool { return r == ',' || r == ' ' })
		if len(cfg.RemoteHosts) == 0 {
			log.Fatal("-remote-hosts: no addresses after splitting on commas")
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	shotPath := filepath.Join(*outDir, l.Name+"_shots.csv")
	if *jobFile != "" {
		// A job file gets the service's artifact set under the service's
		// names — what a daemon run of the same spec is compared against.
		shotPath = filepath.Join(*outDir, "shots.csv")
		if *maskOut == "" {
			*maskOut = filepath.Join(*outDir, "mask.pgm")
		}
		*stream = true
	}
	if *maskOut != "" {
		// The mask is written after the last tile; refuse a path that
		// cannot take it now, not then.
		if err := probeWritable(filepath.Dir(*maskOut)); err != nil {
			log.Fatalf("-mask-out is not writable: %v", err)
		}
	}
	dx := float64(l.TileNM) / float64(spec.GridN)

	o := server.RunOpts{Checkpoint: *ckptPath, MaskPath: *maskOut, ShotsPath: shotPath}
	if *winCache != "off" {
		if o.Cache, err = wcache.New(wcache.Config{Dir: *cacheDir}); err != nil {
			log.Fatalf("-window-cache: %v", err)
		}
	}
	res := run(l, cfg, o)

	// The report is computed from the shot list just written, on a
	// full-grid simulator. -stream never builds one, nor the dense mask
	// it would print: the shot list and its MRC status are the product
	// (-mask-out still writes the mask to disk, one band at a time).
	if *stream {
		fmt.Printf("%s / %s: shots %d, travel %.1f nm (streamed: dense-mask metrics skipped)\n",
			l.Name, spec.Method, len(res.Shots), res.TravelNM)
		metrics.WriteMRC(os.Stdout, metrics.CheckCircleMRC(res.Shots, dx, fracture.RMinNM, fracture.RMaxNM))
		fmt.Printf("wrote %s\n", shotPath)
		return
	}
	oc := cfg.Optics
	oc.TileNM = float64(l.TileNM)
	sim, err := litho.New(oc, spec.GridN)
	if err != nil {
		log.Fatal(err)
	}
	sim.KOpt = spec.KOpt
	score := metrics.ScoreShots(os.Stdout, l.Name+" / "+spec.Method, l, sim, res.Shots, fracture.RMinNM, fracture.RMaxNM)
	fmt.Printf("shots %d, travel %.1f nm in the written order\n", len(res.Shots), res.TravelNM)
	for name, g := range map[string]*grid.Real{
		"target": l.Rasterize(spec.GridN), "mask": score.Mask, "printed": score.Printed,
	} {
		p := filepath.Join(*outDir, fmt.Sprintf("%s_%s.png", l.Name, name))
		if err := grid.GridPNG(g, p); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %s and renders under %s/\n", shotPath, *outDir)
}

// probeWritable creates and removes an empty file in dir, so a path the
// run writes only at its end (or only on a fault) is refused at launch.
func probeWritable(dir string) error {
	probe := filepath.Join(dir, ".cfaopc-probe")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return err
	}
	os.Remove(probe)
	return nil
}

// readSpec parses and validates a job file ("-" = stdin).
func readSpec(path string) *server.JobSpec {
	in := os.Stdin
	if path != "-" {
		var err error
		if in, err = os.Open(path); err != nil {
			log.Fatal(err)
		}
		defer in.Close()
	}
	spec, err := server.ParseSpec(in)
	if err != nil {
		log.Fatal(err)
	}
	return spec
}

// run takes cfg through server.Run and prints the flow report. The
// first SIGINT or SIGTERM cancels the run: in-flight tiles stop within
// one kernel convolution, the tiles finished before it are journaled
// and fsynced, and the run exits 3 here. Once the run is canceled the
// default handlers are back, so a second signal kills the process.
func run(l *layout.Layout, cfg flow.Config, o server.RunOpts) *flow.Result {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	res, err := server.Run(ctx, l, cfg, o)
	if err != nil && ctx.Err() != nil {
		fmt.Println("interrupted: run canceled by signal; no stitched output written")
		if o.Checkpoint != "" {
			fmt.Printf("resume: re-run with the same flags and -checkpoint %s\n", o.Checkpoint)
		}
		os.Exit(3)
	}
	if err != nil {
		log.Fatal(err)
	}
	if o.MaskPath != "" {
		fmt.Printf("wrote mask %s\n", o.MaskPath)
	}
	occupied := 0
	for _, ts := range res.TileStats {
		if ts.Occupied {
			occupied++
		}
	}
	pool := fmt.Sprintf("tile-workers %d", cfg.TileWorkers)
	if cfg.ProcWorkers > 0 {
		pool = fmt.Sprintf("proc-workers %d", cfg.ProcWorkers)
	}
	if n := len(cfg.RemoteHosts); n > 0 {
		pool = fmt.Sprintf("remote-hosts %d", n)
	}
	fmt.Printf("flow: %d windows (%d occupied), %s, peak flow memory ≈ %.1f MB\n",
		res.Tiles, occupied, pool, float64(res.PeakBytes)/(1<<20))
	if o.Cache != nil {
		st := o.Cache.Stats()
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
			note += fmt.Sprintf("  [%d worker crashes", ts.ProcCrashes)
			if ts.LinkErr != "" { // "" in a journal written before the reason was kept
				note += ", last: " + ts.LinkErr
			}
			note += "]"
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
		fmt.Printf("storage: checkpoint journal failed mid-run (%s) — results are correct but this run cannot be resumed\n",
			res.CheckpointErr)
	}
	if res.QuarantineDropped > 0 {
		fmt.Printf("storage: %d quarantine bundle(s) lost to write errors — forensics dropped, tiles unaffected\n",
			res.QuarantineDropped)
	}
	return res
}

// printLinkSummary reports what the worker slots survived; a healthy or
// in-process run prints nothing.
func printLinkSummary(res *flow.Result) {
	if res.LinkCrashes > 0 || res.LinkBroken > 0 {
		fmt.Printf("workers: %d failed dispatches survived, %d breaker openings degraded tiles to in-process\n",
			res.LinkCrashes, res.LinkBroken)
	}
}
