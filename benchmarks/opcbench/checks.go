package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cfaopc/internal/fracture"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
)

// qualityGrid is the full-chip grid every stitched mask is re-simulated
// on: coarse enough that a 1024-px daemon mask costs what a 256-px chip
// does, fine enough (8 nm/px) that a changed shot list moves the number.
const qualityGrid = 256

// The paper's circular-shot mask rule: radii within [12, 76] nm.
const (
	mrcMinNM = 12
	mrcMaxNM = 76
)

// checker collects output-check failures; any one makes the run
// incorrect.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, a ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, a...))
}

// shotsOK applies the per-operation checks to one shot list and
// reports whether the operation counts as failed: no shots at all, or
// a radius outside the mask rule.
func (c *checker) shotsOK(what string, csv []byte, dxNM float64) bool {
	shots, err := fracture.ReadShotsCSV(bytes.NewReader(csv), dxNM)
	if err != nil {
		c.failf("%s: shots.csv does not parse: %v", what, err)
		return false
	}
	if len(shots) == 0 {
		c.failf("%s: finished with zero shots", what)
		return false
	}
	if v := metrics.CheckCircleMRC(shots, dxNM, mrcMinNM, mrcMaxNM); len(v) > 0 {
		c.failf("%s: %d MRC violations, first: shot %d %s", what, len(v), v[0].Shot, v[0].Reason)
		return false
	}
	return true
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// sameSHA requires every hash to equal the first.
func (c *checker) sameSHA(what string, shas []string) {
	for i, s := range shas {
		if s != shas[0] {
			c.failf("%s: shots.csv of repetition %d differs from repetition 0 (%.12s vs %.12s)", what, i, s, shas[0])
		}
	}
}

// quality re-simulates a stitched mask on the full chip with every
// kernel and returns L2 + PVB in nm². It is the guard against getting
// faster by optimizing less.
func quality(sim *litho.Simulator, l *layout.Layout, maskPath string) (float64, error) {
	mask, err := readPGM(maskPath)
	if err != nil {
		return 0, err
	}
	if mask.W%qualityGrid != 0 || mask.W != mask.H {
		return 0, fmt.Errorf("%s: %dx%d mask does not reduce to a %d-px grid", maskPath, mask.W, mask.H, qualityGrid)
	}
	if f := mask.W / qualityGrid; f > 1 {
		mask = grid.DownsampleBox(mask, f)
	}
	res := sim.Simulate(mask)
	dx := float64(l.TileNM) / qualityGrid
	return metrics.L2(res.ZNom, l.Rasterize(qualityGrid), dx) + metrics.PVB(res.ZMax, res.ZMin, dx), nil
}

func qualitySim() (*litho.Simulator, error) {
	return litho.New(optics.Default(), qualityGrid)
}

// readPGM reads the binary PGM server.RunSpec streams the mask into.
func readPGM(path string) (*grid.Real, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var w, h, max int
	if _, err := fmt.Fscanf(r, "P5\n%d %d\n%d\n", &w, &h, &max); err != nil {
		return nil, fmt.Errorf("%s: bad PGM header: %w", path, err)
	}
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("%s: bad PGM dimensions %dx%d", path, w, h)
	}
	buf := make([]byte, w*h)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%s: short PGM body: %w", path, err)
	}
	g := grid.NewReal(w, h)
	for i, b := range buf {
		if b > 127 {
			g.Data[i] = 1
		}
	}
	return g, nil
}

// reference holds the shots and quality recorded at the commit that
// added the benchmark, for the seeds a later claim is read on.
type reference map[string]map[string]struct {
	Shots      float64 `json:"shots"`
	QualityNM2 float64 `json:"quality_nm2"`
}

const referenceTolerance = 0.05

// checkReference compares against benchmarks/reference.json at 5%, so a
// change to the floating-point path may move results a little without
// editing the benchmark. Seeds the file does not list skip the check.
func (c *checker) checkReference(benchDir, workload string, seed int64, shots, qual float64) {
	b, err := os.ReadFile(filepath.Join(benchDir, "reference.json"))
	if err != nil {
		c.failf("reference.json: %v", err)
		return
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		c.failf("reference.json: %v", err)
		return
	}
	want, ok := ref[fmt.Sprint(seed)][workload]
	if !ok {
		return
	}
	if off := math.Abs(shots-want.Shots) / want.Shots; off > referenceTolerance {
		c.failf("%s seed %d: shots %.0f is %.1f%% off the recorded %.0f", workload, seed, shots, 100*off, want.Shots)
	}
	if off := math.Abs(qual-want.QualityNM2) / want.QualityNM2; off > referenceTolerance {
		c.failf("%s seed %d: quality_nm2 %.0f is %.1f%% off the recorded %.0f", workload, seed, qual, 100*off, want.QualityNM2)
	}
}
