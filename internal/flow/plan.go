// Occupancy-adaptive tiling: instead of cutting the grid into uniform
// CorePx cells, the flow can plan its tiles from the layout's occupancy
// — merge sparse 2×2 blocks into one large cheap window, split dense
// cells into four small ones, and skip provably-empty regions without
// even rasterizing them. The plan is computed deterministically from
// layout.WindowIndex occupancy counts before any worker starts, and the
// final job list is sorted by (cy, cx), so the row-major reduce,
// checkpoint journal keys, and streamed band order stay exactly as
// stable as in uniform mode.

package flow

import (
	"sort"

	"cfaopc/internal/layout"
)

// Adaptive thresholds, as fractions of a window's pixel area: the
// maximum merged-window occupancy for a 2×2 merge, and the minimum
// window occupancy that splits a cell.
const (
	mergeMax = 0.02
	splitMin = 0.35
)

// tilePlan is the resolved tiling of one run: the job list in reduce
// order plus the per-band-row bookkeeping the streamed mask assembler
// needs. rows/cols always describe the uniform CorePx band grid — bands
// keep their geometry even when the tiles inside them don't.
type tilePlan struct {
	jobs   []tileJob
	rows   int   // band rows of height CorePx (last may be partial)
	cols   int   // base columns, for reference/stats
	corePx int   // band-row height
	perRow []int // jobs intersecting each band row, gating band emission

	sizes     []int // distinct window edges of non-skip jobs, ascending
	maxWindow int
	merged    int // 2×2 blocks fused into one tile
	split     int // cells fractured into four sub-tiles
	skipped   int // tiles proven empty by the occupancy scan
}

// rowSpan returns the inclusive band-row range job j's core intersects.
func (p *tilePlan) rowSpan(j tileJob) (int, int) {
	r0 := j.cy / p.corePx
	r1 := (j.cy + j.core - 1) / p.corePx
	if r1 > p.rows-1 {
		r1 = p.rows - 1
	}
	return r0, r1
}

// planTiles computes the run's tiling. Uniform mode reproduces the
// historical row-major CorePx grid exactly; adaptive mode classifies
// cells by window occupancy:
//
//   - an even-aligned 2×2 block of full cells whose combined (merged)
//     window occupancy is ≤ mergeMax of its area becomes one
//     tile with a 2·CorePx core — or a skip tile when exactly empty;
//   - a remaining cell with zero window occupancy becomes a skip tile
//     (no rasterization, no shots — the same contribution an
//     unoccupied tile has always made);
//   - a full cell at ≥ splitMin occupancy splits into four
//     CorePx/2-core tiles (requires even CorePx);
//   - everything else stays a base tile.
//
// Windows stay square (core + 2·HaloPx on each axis) at every size, and
// a merge is only taken when its window fits the grid. The job list is
// sorted by (cy, cx) and indexed in that order; those indices are the
// checkpoint journal keys, so AdaptiveTiles is part of the journal
// fingerprint.
func planTiles(cfg Config, ix *layout.WindowIndex) tilePlan {
	core, halo := cfg.CorePx, cfg.HaloPx
	window := core + 2*halo
	cols := (cfg.GridN + core - 1) / core
	p := tilePlan{rows: cols, cols: cols, corePx: core}

	if !cfg.AdaptiveTiles {
		for cy := 0; cy < cfg.GridN; cy += core {
			for cx := 0; cx < cfg.GridN; cx += core {
				p.jobs = append(p.jobs, tileJob{index: len(p.jobs), cx: cx, cy: cy, core: core, window: window})
			}
		}
		p.finish()
		return p
	}

	used := make([]bool, p.rows*p.cols)
	mergedCore := 2 * core
	mergedWindow := mergedCore + 2*halo
	if mergedWindow <= cfg.GridN {
		for r := 0; r+1 < p.rows; r += 2 {
			for c := 0; c+1 < p.cols; c += 2 {
				cx, cy := c*core, r*core
				if cx+mergedCore > cfg.GridN || cy+mergedCore > cfg.GridN {
					continue // block touches a partial edge cell
				}
				occ := ix.Occupancy(cx-halo, cy-halo, mergedWindow, mergedWindow)
				if float64(occ) > mergeMax*float64(mergedWindow*mergedWindow) {
					continue
				}
				p.jobs = append(p.jobs, tileJob{cx: cx, cy: cy, core: mergedCore, window: mergedWindow, skip: occ == 0})
				used[r*p.cols+c] = true
				used[r*p.cols+c+1] = true
				used[(r+1)*p.cols+c] = true
				used[(r+1)*p.cols+c+1] = true
				p.merged++
				if occ == 0 {
					p.skipped++
				}
			}
		}
	}

	subCore := core / 2
	subWindow := subCore + 2*halo
	canSplit := core%2 == 0 && subCore > 0
	for r := 0; r < p.rows; r++ {
		for c := 0; c < p.cols; c++ {
			if used[r*p.cols+c] {
				continue
			}
			cx, cy := c*core, r*core
			occ := ix.Occupancy(cx-halo, cy-halo, window, window)
			if occ == 0 {
				p.jobs = append(p.jobs, tileJob{cx: cx, cy: cy, core: core, window: window, skip: true})
				p.skipped++
				continue
			}
			full := cx+core <= cfg.GridN && cy+core <= cfg.GridN
			if canSplit && full && float64(occ) >= splitMin*float64(window*window) {
				for _, d := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
					p.jobs = append(p.jobs, tileJob{cx: cx + d[0]*subCore, cy: cy + d[1]*subCore, core: subCore, window: subWindow})
				}
				p.split++
				continue
			}
			p.jobs = append(p.jobs, tileJob{cx: cx, cy: cy, core: core, window: window})
		}
	}

	sort.Slice(p.jobs, func(i, k int) bool {
		if p.jobs[i].cy != p.jobs[k].cy {
			return p.jobs[i].cy < p.jobs[k].cy
		}
		return p.jobs[i].cx < p.jobs[k].cx
	})
	for i := range p.jobs {
		p.jobs[i].index = i
	}
	p.finish()
	return p
}

// finish derives the per-row completion counts and the distinct window
// sizes (skip tiles never bind a simulator, so they don't contribute a
// size).
func (p *tilePlan) finish() {
	p.perRow = make([]int, p.rows)
	seen := make(map[int]bool)
	for _, j := range p.jobs {
		r0, r1 := p.rowSpan(j)
		for r := r0; r <= r1; r++ {
			p.perRow[r]++
		}
		if j.window > p.maxWindow {
			p.maxWindow = j.window
		}
		if !j.skip && !seen[j.window] {
			seen[j.window] = true
			p.sizes = append(p.sizes, j.window)
		}
	}
	sort.Ints(p.sizes)
}
