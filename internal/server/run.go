package server

import (
	"bufio"
	"context"
	"fmt"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/wcache"
)

// RunOpts carries the per-invocation plumbing around a job spec: where
// to persist, where to stream, what to observe. The zero value runs
// the spec with no checkpoint, no mask file, and no observers.
type RunOpts struct {
	// Checkpoint journals completed tiles so an interrupted run
	// resumes byte-identically ("" = no journal).
	Checkpoint string
	// MaskPath streams the stitched mask there as a binary PGM in row
	// bands ("" = no mask file). On a resumed run the file is
	// rewritten from row zero; bands re-emit deterministically, so the
	// final bytes match an uninterrupted run.
	MaskPath string
	// ShotsPath writes the beam-ordered shot list as CSV after the
	// flow completes ("" = no shot file).
	ShotsPath string
	// Events observes the flow's heartbeats and tile completions; it
	// must never block (see flow.EventSink).
	Events flow.EventSink
	// OnBand is called after each mask band is durably flushed to
	// MaskPath, with the band's first row and row count.
	OnBand func(row, rows int)
	// Drain, when closed, stops dispatching new tiles; in-flight tiles
	// finish and checkpoint, and the run returns flow.ErrDrained.
	Drain <-chan struct{}
	// FS is the filesystem seam every artifact write goes through —
	// the flow checkpoint, quarantine bundles, the streamed mask PGM,
	// and the shot CSV. nil means the real filesystem.
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
	// tasks and quarantine bundles, so a tile worker or replaytile
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
		RMinPx:       6 / dx,
		RMaxPx:       152 / dx,
		PartialEvery: s.PartialEvery,
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

// Run executes cfg over l and writes the artifacts o names: the mask
// PGM streamed in bands while the flow runs, the beam-ordered shot CSV
// after it, both fsynced before Run returns. The plumbing fields of
// cfg that RunOpts also names (CheckpointPath, FS, Cache, Events,
// Drain, MaskWriter) are Run's to set — whatever cfg held is replaced.
func Run(ctx context.Context, l *layout.Layout, cfg flow.Config, o RunOpts) (*flow.Result, error) {
	cfg.CheckpointPath, cfg.FS, cfg.Cache = o.Checkpoint, o.FS, o.Cache
	cfg.Events, cfg.Drain, cfg.MaskWriter = o.Events, o.Drain, nil
	var bands *bandFile
	if o.MaskPath != "" {
		var err error
		if bands, err = newBandFile(o.FS, o.MaskPath, cfg.GridN, o.OnBand); err != nil {
			return nil, err
		}
		cfg.MaskWriter = bands
	}

	res, err := flow.RunContext(ctx, l, cfg)
	if err != nil {
		if bands != nil {
			bands.abort()
		}
		return res, err
	}
	if bands != nil {
		if err := bands.Close(); err != nil {
			return res, err
		}
	}
	if o.ShotsPath != "" {
		dx := float64(l.TileNM) / float64(cfg.GridN)
		if err := WriteShots(o.FS, o.ShotsPath, res.Shots, dx); err != nil {
			return res, err
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

// pgmHeader is the binary PGM (P5) preamble of an n×n mask; a follower
// serving the file needs its length to map rows to byte offsets.
func pgmHeader(n int) string { return fmt.Sprintf("P5\n%d %d\n255\n", n, n) }

// bandFile streams the stitched mask to disk as a binary PGM (P5), one
// flow band at a time, flushing each band before reporting it so a
// follower reading the file never sees a partially written band it was
// told about. Bands arrive top-to-bottom; Close verifies every row
// landed.
type bandFile struct {
	f      iox.File
	w      *bufio.Writer
	n      int
	next   int // next expected global row
	buf    []byte
	onBand func(row, rows int)
}

func newBandFile(fsys iox.FS, path string, n int, onBand func(row, rows int)) (*bandFile, error) {
	f, err := iox.OrOS(fsys).Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(pgmHeader(n)); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return &bandFile{f: f, w: w, n: n, buf: make([]byte, n), onBand: onBand}, nil
}

func (p *bandFile) WriteBand(y0 int, band *grid.Real) error {
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
	if err := p.w.Flush(); err != nil {
		return err
	}
	p.next += band.H
	if p.onBand != nil {
		p.onBand(y0, band.H)
	}
	return nil
}

func (p *bandFile) Close() error {
	if p.next != p.n {
		p.f.Close()
		return fmt.Errorf("pgm: only %d of %d rows streamed", p.next, p.n)
	}
	if err := p.w.Flush(); err != nil {
		p.f.Close()
		return err
	}
	// Per-band flushes make rows visible to followers; this final fsync
	// makes the finished mask crash-durable before the job is recorded
	// done.
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}

// abort releases the file handle after a failed run without enforcing
// the all-rows-landed contract; the partial file is left for the
// resumed run to rewrite from row zero.
func (p *bandFile) abort() { p.f.Close() }
