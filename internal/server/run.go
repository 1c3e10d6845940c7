package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/wcache"
)

// RunOpts carries the per-invocation plumbing around a job spec: where
// to persist, what to observe. The zero value runs the spec with no
// checkpoint, no mask file, and no observers.
type RunOpts struct {
	// Checkpoint journals completed tiles so an interrupted run
	// resumes byte-identically ("" = no journal).
	Checkpoint string
	// MaskPath writes the stitched mask there as a binary PGM after
	// the flow completes ("" = no mask file). A run that does not
	// finish leaves whatever was at the path untouched.
	MaskPath string
	// ShotsPath writes the beam-ordered shot list as CSV after the
	// flow completes, before the mask ("" = no shot file).
	ShotsPath string
	// Events observes the flow's heartbeats and tile completions; it
	// must never block (see flow.EventSink).
	Events flow.EventSink
	// FS is the filesystem seam every artifact write goes through —
	// the flow checkpoint, quarantine bundles, the shot CSV and the
	// mask PGM. nil means the real filesystem.
	FS iox.FS
	// Cache is a shared window dedup cache for the run (nil = off).
	// Caching changes wall time only, never bytes, so daemon/CLI
	// artifact parity holds with or without it.
	Cache *wcache.Cache
}

// FlowConfig is the one place a job spec becomes a flow.Config: every
// knob that enters the run's config fingerprint — the optimizer chain
// and the engine metadata that stands in for it, optics, tiling, the
// validation bounds, retries — plus the spec's scheduling knobs. What a
// caller may still set on the result is how and where this process runs
// it (transport, timeouts, quarantine), on the fields
// flow.Config already owns; Run fills in the RunOpts plumbing.
//
// It is also the first place the pixel pitch is known, so the physical
// window floor is checked here: a window narrower than λ/NA holds no
// frequency bin inside the pupil, and the kernel build would fail on it
// at dispatch.
func (s *JobSpec) FlowConfig(l *layout.Layout) (cfg flow.Config, err error) {
	fallback := s.Fallback
	if fallback == "none" {
		fallback = "" // the metadata's spelling of "no fallback"
	}
	// The optimizers are built from the metadata that rides into worker
	// tasks and quarantine bundles, so a tile worker or a bundle replay
	// rebuilds this exact chain by the same call.
	meta := engine.Meta(s.Method, fallback, engine.Options{Iters: s.Iters, Gamma: s.Gamma, SampleNM: s.SampleNM})
	optimize, fb, err := engine.FromMeta(meta)
	if err != nil {
		return cfg, err
	}
	dx := float64(l.TileNM) / float64(s.GridN)
	o := optics.Default()
	window := s.TileCore + 2*s.TileHalo
	if nm, floor := float64(window)*dx, o.Wavelength/o.NA; nm < floor {
		return cfg, fmt.Errorf("spec: window %d px (core %d + 2x halo %d) is %.4g nm at %.4g nm/px, below the λ/NA = %.1f nm floor the optics can image; raise tile_core or tile_halo",
			window, s.TileCore, s.TileHalo, nm, dx, floor)
	}
	return flow.Config{
		GridN:       s.GridN,
		CorePx:      s.TileCore,
		HaloPx:      s.TileHalo,
		Optics:      o,
		KOpt:        s.KOpt,
		TileWorkers: s.TileWorkers,
		Optimize:    optimize,
		Fallback:    fb,
		Engines:     meta,
		TileRetries: 1,
		// Validation bounds follow the MRC radius window (12-76 nm),
		// scaled to window-grid pixels with a tolerance band so
		// borderline-legal shots degrade via MRC reporting, not tile
		// retries.
		RMinPx: 6 / dx,
		RMaxPx: 152 / dx,
	}, nil
}

// RunSpec executes a normalized job spec through the tiled flow:
// FlowConfig, then Run. The daemon, the benchmark and cfaopc (whose
// flags and -job file are two more ways to write the spec) all come
// through these two halves, so there is no second assembly of a product
// run for their bytes to drift from.
func RunSpec(ctx context.Context, l *layout.Layout, spec *JobSpec, o RunOpts) (*flow.Result, error) {
	cfg, err := spec.FlowConfig(l)
	if err != nil {
		return nil, err
	}
	return Run(ctx, l, cfg, o)
}

// Run executes cfg over l and, once the flow has returned every tile,
// writes the artifacts o names: the beam-ordered shot CSV first (the
// product), then the mask PGM rasterized from the same shots, both
// fsynced before Run returns. It returns a Result only with a nil
// error. The plumbing fields of cfg that RunOpts also names
// (CheckpointPath, FS, Cache, Events) are Run's to set — whatever cfg
// held is replaced.
func Run(ctx context.Context, l *layout.Layout, cfg flow.Config, o RunOpts) (*flow.Result, error) {
	cfg.CheckpointPath, cfg.FS, cfg.Cache, cfg.Events = o.Checkpoint, o.FS, o.Cache, o.Events
	res, err := flow.RunContext(ctx, l, cfg)
	if err == nil {
		err = ctx.Err() // stopped after the last tile: the tail cannot hear it
	}
	if err != nil {
		return nil, err
	}
	if o.ShotsPath != "" {
		dx := float64(l.TileNM) / float64(cfg.GridN)
		if err := WriteShots(o.FS, o.ShotsPath, res.Shots, dx); err != nil {
			return nil, err
		}
	}
	if o.MaskPath != "" {
		if err := WriteMask(o.FS, o.MaskPath, cfg.GridN, res.Shots); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// WriteShots writes the hand-off artifact: shots ordered to minimize
// beam travel, as CSV in nm (dx nm per pixel), fsynced — the shot list
// is the product; it must be on the platter before the caller records
// the job done.
func WriteShots(fsys iox.FS, path string, shots []geom.Circle, dx float64) error {
	f, err := iox.OrOS(fsys).Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fracture.WriteShotsCSV(bw, fracture.OrderShots(shots), dx); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMask rasterizes maskBandRows rows at a time into one byte band of
// maskBandBytes, whatever n is; EstimateCost prices the band the same.
const maskBandRows = 64

func maskBandBytes(n int) int64 { return int64(n) * int64(min(maskBandRows, n)) }

// WriteMask writes the n×n mask shots print as a binary PGM (P5),
// fsynced — 255 where geom.RasterizeCircles(n, n, shots) is set, 0
// elsewhere, painted span by span (geom.Circle.Span) into one reused
// byte band so no n² grid is ever held, and written one band per write
// call.
func WriteMask(fsys iox.FS, path string, n int, shots []geom.Circle) error {
	f, err := iox.OrOS(fsys).Create(path)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "P5\n%d %d\n255\n", n, n)
	band := make([]byte, maskBandBytes(n))
	set := bytes.Repeat([]byte{255}, n)
	for y0 := 0; y0 < n && err == nil; y0 += maskBandRows {
		y1 := min(y0+maskBandRows, n)
		clear(band)
		for _, c := range shots {
			lo, hi := c.Rows(y0, y1)
			for y := lo; y < hi; y++ {
				x0, x1 := c.Span(y, n)
				copy(band[(y-y0)*n+x0:], set[x0:x1])
			}
		}
		_, err = f.Write(band[:(y1-y0)*n])
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
