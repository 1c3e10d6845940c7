// Package quarantine defines the self-contained repro bundle the tiled
// flow writes when a window exhausts every optimizer (primary → retries
// → fallback) and degrades to empty. PR 2's degradation policy keeps
// the run alive but used to discard the evidence; a bundle preserves
// everything needed to replay the failure offline, deterministically,
// on another machine:
//
//   - the window target raster plus the layout rects that produced it,
//   - the flow configuration fingerprint and every tiling/validation
//     knob that shaped the attempts,
//   - engine metadata sufficient to rebuild the exact optimizer chain,
//   - the per-attempt error/path history as recorded live.
//
// On disk a bundle is a gob blob in an iox sealed file — magic, then one
// length | CRC32 | payload frame — so bit rot is detected, plus a
// human-readable JSON sidecar (raster elided) for quick triage with
// nothing but a pager. A bundle is also a worker's task (procpool.Task),
// so cmd/tileworker replays it; this package imports no flow code so the
// schema stays a leaf the flow, the worker wire and the replay share.
package quarantine

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
)

var magic = []byte("CFQRB1\n")

// FormatVersion is the bundle schema version; Load rejects others.
const FormatVersion = 1

// MaxBundleBytes bounds a bundle payload so a corrupt length prefix
// cannot demand an absurd allocation during Load.
const MaxBundleBytes = 256 << 20

// EngineMeta describes how to rebuild the optimizer chain offline: the
// named primary and fallback engines plus the resolution-independent
// knobs cmd/cfaopc resolves them with. It is copied verbatim from
// flow.Config into every bundle so a replay (cmd/tileworker
// bundle.qrb) reconstructs the exact attempt sequence.
type EngineMeta struct {
	Primary  string  // e.g. "circleopt"
	Fallback string  // e.g. "circlerule"; "" when no fallback was set
	Iters    int     // optimization iterations
	Gamma    float64 // CircleOpt sparsity weight at the paper's 1 nm/px scale
	SampleNM float64 // circle sample distance in nm
}

// Attempt is one optimizer invocation as recorded live by the flow.
type Attempt struct {
	Index    int    // global attempt counter; the fallback is TileRetries+1
	Engine   string // "primary" or "fallback"
	Err      string // failure mode; "" for a success (never in a bundle)
	Iters    int    // heartbeats emitted before the attempt ended
	LastLoss float64
	Stalled  bool // killed by the stall timer, not the wall deadline
}

// Tile identifies the quarantined window.
type Tile struct {
	Index    int // row-major window index
	CX, CY   int // core origin in full-grid pixels
	OriginX  int // window origin (core minus halo) in full-grid pixels
	OriginY  int
	WindowPx int // window edge in pixels
}

// Bundle is the self-contained repro artifact for one failed tile.
type Bundle struct {
	FormatVersion int
	Fingerprint   string // the flow's (layout, tiling) fingerprint

	LayoutName string
	TileNM     int
	GridN      int
	CorePx     int
	HaloPx     int
	KOpt       int

	TileRetries  int
	TileTimeout  time.Duration
	StallTimeout time.Duration
	RMinPx       float64
	RMaxPx       float64

	// Optics is the window-level imaging condition (TileNM already set
	// to the window's physical size), ready for litho.New.
	Optics  optics.Config
	Engines EngineMeta

	Tile Tile
	// Target is the window target raster, row-major WindowPx². It is
	// elided from the JSON sidecar.
	TargetW, TargetH int
	Target           []float64
	// Rects are the layout rectangles (full-grid nm coordinates) whose
	// span overlaps the window — enough geometry to re-derive Target.
	Rects []layout.Rect

	Attempts []Attempt
}

// ValidateTask checks the invariants of a bundle used as a live task
// encoding (procpool wire protocol): everything Load relies on except
// the attempt history, which a not-yet-run tile does not have.
func (b *Bundle) ValidateTask() error {
	if b.FormatVersion != FormatVersion {
		return fmt.Errorf("quarantine: bundle format v%d, this build reads v%d", b.FormatVersion, FormatVersion)
	}
	if b.TargetW <= 0 || b.TargetH <= 0 || len(b.Target) != b.TargetW*b.TargetH {
		return fmt.Errorf("quarantine: target raster %dx%d with %d pixels", b.TargetW, b.TargetH, len(b.Target))
	}
	if b.Tile.WindowPx != b.TargetW {
		return fmt.Errorf("quarantine: window %d px but target width %d", b.Tile.WindowPx, b.TargetW)
	}
	return nil
}

// Validate checks the structural invariants Load relies on: a stored
// repro bundle is a task-grade bundle plus a recorded attempt history.
func (b *Bundle) Validate() error {
	if err := b.ValidateTask(); err != nil {
		return err
	}
	if len(b.Attempts) == 0 {
		return fmt.Errorf("quarantine: bundle records no attempts")
	}
	return nil
}

// BaseName is the deterministic file stem for a tile's bundle.
func BaseName(tileIndex int) string { return fmt.Sprintf("tile%04d", tileIndex) }

// SaveFS writes b under dir as <tileNNNN>.qrb (CRC-guarded gob) plus a
// <tileNNNN>.json sidecar, overwriting previous bundles for the same
// tile, and returns the .qrb path. Writes go through a temp file +
// fsync + rename + parent-dir fsync so a crash mid-save never leaves a
// torn bundle behind and a saved bundle survives power loss.
func SaveFS(fsys iox.FS, dir string, b *Bundle) (string, error) {
	fsys = iox.OrOS(fsys)
	if err := b.Validate(); err != nil {
		return "", err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	payload, err := iox.EncodeGob(b)
	if err != nil {
		return "", fmt.Errorf("quarantine: encode: %w", err)
	}
	base := filepath.Join(dir, BaseName(b.Tile.Index))
	path := base + ".qrb"
	if err := iox.WriteSealed(fsys, path, magic, payload, MaxBundleBytes); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	side, err := json.MarshalIndent(b.sidecar(), "", "  ")
	if err != nil {
		return "", fmt.Errorf("quarantine: sidecar: %w", err)
	}
	if err := iox.AtomicWrite(fsys, base+".json", append(side, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	return path, nil
}

// Load reads and verifies a bundle written by SaveFS from the real
// filesystem.
func Load(path string) (*Bundle, error) { return LoadFS(nil, path) }

// LoadFS is Load through the seam SaveFS writes through (nil = the real
// filesystem). The reader never holds more than MaxBundleBytes, whatever
// the file's size or declared length.
func LoadFS(fsys iox.FS, path string) (*Bundle, error) {
	payload, err := iox.ReadSealed(fsys, path, magic, MaxBundleBytes)
	if err != nil {
		return nil, fmt.Errorf("quarantine: %w", err)
	}
	b := new(Bundle)
	if err := iox.DecodeGob(payload, b); err != nil {
		return nil, fmt.Errorf("quarantine: decode %s: %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// sidecar is the human-readable JSON view: the whole bundle minus the
// raster, plus a one-number summary of it.
func (b *Bundle) sidecar() any {
	c := *b
	c.Target = nil
	occupied := 0
	for _, v := range b.Target {
		if v > 0.5 {
			occupied++
		}
	}
	return struct {
		*Bundle
		TargetOccupiedPx int
	}{&c, occupied}
}
