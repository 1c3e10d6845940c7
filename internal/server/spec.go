// Package server turns the tiled OPC flow into a long-running service:
// a job manager that admits JSON job specs, schedules them with
// per-tenant fairness on a bounded executor, streams live progress over
// Server-Sent Events, and persists every job through the checkpoint
// journal so a SIGKILLed daemon restarts with byte-identical output.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"

	"cfaopc/internal/engine"
	"cfaopc/internal/gds"
	"cfaopc/internal/layout"
)

// JobSpec is the wire format of one OPC job. Exactly one of Layout
// (a .glp/.gds path relative to the daemon's layout root) or Case (a
// synthetic benchmark case, 1-10) names the target. Zero-valued knobs
// take the documented defaults, so {"case":1} is a complete spec.
//
// A normalized spec is canonical: marshaling it yields the bytes that
// fingerprint the job's event journal, so the same spec always binds
// to the same persistent state.
type JobSpec struct {
	Layout string `json:"layout,omitempty"` // layout file, relative to the layout root
	Case   int    `json:"case,omitempty"`   // synthetic benchmark case 1..10

	Tenant   string `json:"tenant,omitempty"`   // fairness domain (default "default")
	Priority int    `json:"priority,omitempty"` // higher runs first, -100..100

	Method   string `json:"method,omitempty"`   // optimizer (default circleopt)
	Fallback string `json:"fallback,omitempty"` // degraded-tile method (default circlerule, "none" disables)

	GridN    int `json:"grid,omitempty"`      // simulation grid edge (default 256)
	TileCore int `json:"tile_core,omitempty"` // owned px per window (default 128)
	TileHalo int `json:"tile_halo,omitempty"` // context px per side (default 32)

	// DeadlineMS bounds the job's total service time in milliseconds,
	// measured from first admission (the anchor survives restarts: it
	// rides the job's seq-1 event). 0 means no per-job
	// deadline; the daemon's queue TTL still applies. Expired jobs —
	// queued or running — end in the terminal deadline_exceeded state
	// with checkpoint state preserved for manual resume. The cfaopc
	// -job CLI ignores it: deadlines are a service contract.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	Iters       int     `json:"iters,omitempty"`        // optimizer iterations (default 60)
	Gamma       float64 `json:"gamma,omitempty"`        // CircleOpt sparsity weight (default 3)
	SampleNM    float64 `json:"sample_nm,omitempty"`    // circle sample distance (default 32)
	KOpt        int     `json:"kopt,omitempty"`         // optimization kernels (default 5)
	TileWorkers int     `json:"tile_workers,omitempty"` // concurrent windows (default 1)

	// PartialEvery is accepted, range-checked and ignored: it set the
	// interval of the mid-tile optimizer snapshots the flow no longer
	// takes. It stays a key so a spec that names it still parses and its
	// Canonical bytes — the header of every event journal a daemon wrote
	// for such a job — stay what they were.
	PartialEvery int `json:"partial_every,omitempty"`
}

// minWindow is the smallest window edge the service admits. The litho
// simulator rejects tiny grids outright, and windows near that floor
// spend all their area on halo; 48 px keeps every admitted job inside
// the regime the flow is tested in. The physical floor — a window of at
// least λ/NA nm — needs the layout's pitch and is FlowConfig's to check.
const minWindow = 48

// maxGrid bounds the simulation grid a single job may request; it caps
// daemon memory at roughly one window's kernels plus one mask band.
const maxGrid = 8192

var tenantRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ParseSpec decodes a job spec strictly — unknown fields, trailing
// data, and out-of-range knobs are rejected, not ignored — and returns
// the normalized form. A service must not guess what a typo meant.
func ParseSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the job object")
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize fills zero-valued knobs with their defaults. It is
// idempotent: normalizing a normalized spec changes nothing.
func (s *JobSpec) Normalize() {
	def := engine.Defaults()
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Method == "" {
		s.Method = "circleopt"
	}
	if s.Fallback == "" {
		s.Fallback = "circlerule"
	}
	if s.GridN == 0 {
		s.GridN = 256
	}
	if s.TileCore == 0 {
		s.TileCore = 128
	}
	if s.TileHalo == 0 {
		s.TileHalo = 32
	}
	if s.Iters == 0 {
		s.Iters = def.Iters
	}
	if s.Gamma == 0 {
		s.Gamma = def.Gamma
	}
	if s.SampleNM == 0 {
		s.SampleNM = def.SampleNM
	}
	if s.KOpt == 0 {
		s.KOpt = 5
	}
	if s.TileWorkers == 0 {
		s.TileWorkers = 1
	}
}

// Validate rejects specs the flow would fail on hours later, or that a
// hostile client could use to read outside the layout root. It assumes
// Normalize has run.
func (s *JobSpec) Validate() error {
	switch {
	case s.Layout != "" && s.Case != 0:
		return fmt.Errorf("spec: layout and case are mutually exclusive")
	case s.Layout == "" && s.Case == 0:
		return fmt.Errorf("spec: need layout or case")
	case s.Case != 0 && (s.Case < 1 || s.Case > 10):
		return fmt.Errorf("spec: case %d outside 1..10", s.Case)
	}
	if s.Layout != "" {
		// The layout ref is a relative path under the daemon's layout
		// root, never an escape hatch: absolute paths, "..", and
		// Windows-style drive tricks are all rejected by IsLocal.
		if !filepath.IsLocal(s.Layout) {
			return fmt.Errorf("spec: layout %q escapes the layout root", s.Layout)
		}
		switch strings.ToLower(filepath.Ext(s.Layout)) {
		case ".glp", ".gds":
		default:
			return fmt.Errorf("spec: layout %q: want a .glp or .gds file", s.Layout)
		}
	}
	if !tenantRE.MatchString(s.Tenant) {
		return fmt.Errorf("spec: tenant %q: want [A-Za-z0-9_-]{1,64}", s.Tenant)
	}
	if s.Priority < -100 || s.Priority > 100 {
		return fmt.Errorf("spec: priority %d outside -100..100", s.Priority)
	}
	if !knownMethod(s.Method) {
		return fmt.Errorf("spec: unknown method %q (have %s)", s.Method, strings.Join(engine.Names(), " | "))
	}
	if s.Fallback != "none" && !knownMethod(s.Fallback) {
		return fmt.Errorf("spec: unknown fallback %q", s.Fallback)
	}
	if s.GridN < minWindow || s.GridN > maxGrid {
		return fmt.Errorf("spec: grid %d outside %d..%d", s.GridN, minWindow, maxGrid)
	}
	if s.TileCore < 1 || s.TileHalo < 0 {
		return fmt.Errorf("spec: tile core %d / halo %d invalid", s.TileCore, s.TileHalo)
	}
	window := s.TileCore + 2*s.TileHalo
	if window < minWindow {
		return fmt.Errorf("spec: window %d (core %d + 2x halo %d) below the %d px floor", window, s.TileCore, s.TileHalo, minWindow)
	}
	if window > s.GridN {
		return fmt.Errorf("spec: window %d exceeds grid %d", window, s.GridN)
	}
	if s.Iters < 1 || s.Iters > 100000 {
		return fmt.Errorf("spec: iters %d outside 1..100000", s.Iters)
	}
	if !finitePositive(s.Gamma) || s.Gamma > 1000 {
		return fmt.Errorf("spec: gamma %v outside (0, 1000]", s.Gamma)
	}
	if !finitePositive(s.SampleNM) || s.SampleNM > 1e6 {
		return fmt.Errorf("spec: sample_nm %v outside (0, 1e6]", s.SampleNM)
	}
	if s.KOpt < 1 || s.KOpt > 24 {
		return fmt.Errorf("spec: kopt %d outside 1..24", s.KOpt)
	}
	if s.TileWorkers < 1 || s.TileWorkers > 64 {
		return fmt.Errorf("spec: tile_workers %d outside 1..64", s.TileWorkers)
	}
	if s.PartialEvery < 0 || s.PartialEvery > 100000 {
		return fmt.Errorf("spec: partial_every %d outside 0..100000", s.PartialEvery)
	}
	if s.DeadlineMS < 0 || s.DeadlineMS > 86_400_000 {
		return fmt.Errorf("spec: deadline_ms %d outside 0..86400000", s.DeadlineMS)
	}
	return nil
}

// Canonical returns the bytes that identify this spec: the JSON
// marshaling of the normalized form. Struct-field order makes it
// deterministic, so equal specs always produce equal bytes.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Every field is a plain number or validated string; Marshal
		// cannot fail on a spec that passed Validate.
		panic("server: marshal of validated spec failed: " + err.Error())
	}
	return b
}

// Equal reports whether two normalized specs describe the same job.
func (s *JobSpec) Equal(o *JobSpec) bool { return bytes.Equal(s.Canonical(), o.Canonical()) }

// ResolveLayout loads the job's target pattern: a synthetic benchmark
// case, or a layout file under root. The traversal check in Validate
// already confined s.Layout to the root; this only reads the file.
func (s *JobSpec) ResolveLayout(root string) (*layout.Layout, error) {
	if s.Case != 0 {
		return layout.GenerateSuite()[s.Case-1], nil
	}
	return gds.ReadFile(filepath.Join(root, s.Layout))
}

func knownMethod(name string) bool {
	for _, n := range engine.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}
