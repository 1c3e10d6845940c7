// Streamed mask assembly: instead of re-rasterizing the stitched shot
// list onto a second O(GridN²) dense grid, the flow can emit the mask as
// horizontal row bands — one band per tile row, rasterized from only the
// shots that can reach it — as the contributing tile rows complete. Peak
// mask memory is one band (GridN × CorePx), not GridN².
package flow

import (
	"fmt"
	"sync"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
)

// MaskWriter receives the stitched mask as horizontal bands. Bands
// arrive in top-to-bottom order, each global row exactly once: band k
// covers full-grid rows [y0, y0+band.H) with band.W == Config.GridN.
// Calls are serialized by the flow. When Config.RMaxPx bounds shot radii
// the bands stream out while later tile rows are still optimizing;
// without a radius bound every band is emitted after the last tile
// finishes (a later shot of unknown radius could otherwise reach back
// into an already-emitted band). A failed or canceled run may have
// written a prefix of the bands; a rerun restarts from the first band.
type MaskWriter interface {
	WriteBand(y0 int, band *grid.Real) error
}

// MaskCollector is a MaskWriter that reassembles the streamed bands into
// a dense full-grid mask — the bridge for callers that want the banded
// pipeline and a final dense grid, and the reference the equivalence
// tests compare against the rasterized Result.Shots.
type MaskCollector struct {
	Mask *grid.Real
}

// NewMaskCollector collects bands of an n×n mask.
func NewMaskCollector(n int) *MaskCollector {
	return &MaskCollector{Mask: grid.NewReal(n, n)}
}

// WriteBand copies the band into the dense mask.
func (c *MaskCollector) WriteBand(y0 int, band *grid.Real) error {
	if band.W != c.Mask.W || y0 < 0 || y0+band.H > c.Mask.H {
		return fmt.Errorf("flow: band rows [%d, %d) outside %dx%d mask", y0, y0+band.H, c.Mask.W, c.Mask.H)
	}
	copy(c.Mask.Data[y0*c.Mask.W:(y0+band.H)*c.Mask.W], band.Data)
	return nil
}

// bandAssembler turns per-tile completions (in any order — workers race,
// resumed tiles replay up front) into ordered band emissions. It buffers
// only the owned shots per tile row plus one rasterized band at a time.
type bandAssembler struct {
	mu        sync.Mutex
	gridN     int
	corePx    int
	rows      int
	reachRows int // tile-row reach of one shot; -1 = unbounded, emit at finish
	w         MaskWriter

	rowShots [][]geom.Circle // owned shots per tile row, full-grid coords
	rowLeft  []int           // tiles not yet completed per row
	next     int             // next tile row (band) to emit
	err      error           // first writer error, surfaced by finish
}

// newBandAssembler sizes the assembler for the square plan's band grid:
// as many corePx-high rows as tiles per row. When rMaxPx > 0 a shot can
// reach at most a bounded number of band rows, so bands stream as soon
// as their neighborhood of rows completes; otherwise emission waits for
// finish.
func newBandAssembler(gridN, corePx int, rMaxPx float64, w MaskWriter) *bandAssembler {
	rows := (gridN + corePx - 1) / corePx
	a := &bandAssembler{
		gridN:     gridN,
		corePx:    corePx,
		rows:      rows,
		reachRows: -1,
		w:         w,
		rowShots:  make([][]geom.Circle, rows),
		rowLeft:   make([]int, rows),
	}
	for r := range a.rowLeft {
		a.rowLeft[r] = rows
	}
	if rMaxPx > 0 {
		// A shot of radius R centered in band row r' can only touch rows
		// within int(R/corePx)+2 band rows of r' (one row of slack for the
		// partial border row and the rasterizer's +1 bounding margin).
		a.reachRows = int(rMaxPx/float64(corePx)) + 2
	}
	return a
}

// tileDone records one completed tile of band row r and its owned shots,
// and emits every band whose contributing rows are now all complete.
// Shots are bucketed by center row (band rasterization is a union, so
// within-row order is irrelevant).
func (a *bandAssembler) tileDone(r int, shots []geom.Circle) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	for _, s := range shots {
		row := int(s.Y) / a.corePx
		if row < 0 {
			row = 0
		}
		if row > a.rows-1 {
			row = a.rows - 1
		}
		a.rowShots[row] = append(a.rowShots[row], s)
	}
	a.rowLeft[r]--
	a.advance(false)
}

// advance emits bands from the front while their reach neighborhood is
// complete; with final set (every tile done) it drains to the end.
func (a *bandAssembler) advance(final bool) {
	for a.next < a.rows && a.err == nil {
		r := a.next
		if !final {
			if a.reachRows < 0 {
				return
			}
			lo, hi := r-a.reachRows, r+a.reachRows
			if lo < 0 {
				lo = 0
			}
			if hi > a.rows-1 {
				hi = a.rows - 1
			}
			for rr := lo; rr <= hi; rr++ {
				if a.rowLeft[rr] > 0 {
					return
				}
			}
		}
		a.err = a.emit(r)
		a.next++
	}
}

// emit rasterizes band r from the shots of every row that can reach it
// and hands it to the writer.
func (a *bandAssembler) emit(r int) error {
	y0 := r * a.corePx
	h := a.corePx
	if y0+h > a.gridN {
		h = a.gridN - y0
	}
	lo, hi := 0, a.rows-1
	if a.reachRows >= 0 {
		if lo = r - a.reachRows; lo < 0 {
			lo = 0
		}
		if hi = r + a.reachRows; hi > a.rows-1 {
			hi = a.rows - 1
		}
	}
	var cand []geom.Circle
	for rr := lo; rr <= hi; rr++ {
		cand = append(cand, a.rowShots[rr]...)
	}
	return a.w.WriteBand(y0, geom.RasterizeCirclesBand(a.gridN, h, y0, cand))
}

// finish drains the remaining bands (every tile has completed by the
// time the flow calls it) and returns the first writer error, if any.
func (a *bandAssembler) finish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == nil {
		a.advance(true)
	}
	return a.err
}
