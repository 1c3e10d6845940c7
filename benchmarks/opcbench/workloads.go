package main

import (
	"fmt"
	"math/rand"

	"cfaopc/internal/layout"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlChip192  = "chip_opt_192"
	wlChip128  = "chip_opt_128_par"
	wlArray    = "array_cache"
	wlDaemon   = "daemon_rule"
	chipTileNM = 2048
)

var workloadNames = []string{wlChip192, wlChip128, wlArray, wlDaemon}

// inprocPlan is one job run through server.RunSpec in a child process.
type inprocPlan struct {
	layout *layout.Layout
	spec   string // job spec JSON; its layout ref is written into the child's directory
	cache  bool   // disk-backed wcache: cold pass, warm passes, disk-warm pass
	warm   int    // warm passes per repetition (cache only)
	// wantMisses and wantHits are the exact cold-pass cache counts: one
	// miss per distinct motif, one hit per further cell.
	wantMisses, wantHits int
	// refWorkers, when non-zero, is the tile_workers value of the
	// reference run whose shots the workload's own run must equal.
	refWorkers int
}

// daemonJob is one submission to cfaopcd.
type daemonJob struct {
	spec  string
	heavy bool
}

// daemonPlan is the job list two closed-loop clients drain from a real
// cfaopcd subprocess.
type daemonPlan struct {
	layouts   map[string]*layout.Layout // heavy layouts, by file name under the layout root
	jobs      []daemonJob               // submission order
	clients   int
	maxActive int
}

const layoutFile = "chip.glp"

// sizes scales a plan between the measured configuration and the smoke
// test's shrunken one.
type sizes struct {
	iters      int
	kopt       int
	arrayN     int // array is arrayN×arrayN cells
	warm       int
	smallCases int // distinct small daemon jobs
	smallTwice bool
	heavy      int // distinct heavy layouts, each submitted twice
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return smokeSizes
	}
	return fullSizes
}

var (
	fullSizes  = sizes{iters: 6, kopt: 4, arrayN: 8, warm: 30, smallCases: 10, smallTwice: true, heavy: 2}
	smokeSizes = sizes{iters: 1, kopt: 1, arrayN: 3, warm: 2, smallCases: 2, smallTwice: false, heavy: 1}
)

// barLattice places one bar in every cell of a k×k lattice. The bars'
// widths, lengths and orientations are fixed multisets, so every seed
// gives the same pattern area and the same set of occupied windows: the
// timings and shot counts of different seeds are then comparable, which
// the spread check across seeds needs. layout.GenerateRandom does not
// have this property (its occupied-window count moves with the seed).
//
// With jitter the seed permutes the bars among the cells and shifts each
// inside its cell. Without, the arrangement is fixed and the seed only
// translates the whole block by up to slackNM: CircleOpt on a handful of
// bars answers a rearrangement with ±10% shots, a translation by whole
// pixels with next to nothing.
func barLattice(rng *rand.Rand, name string, originNM, pitchNM, k, minLen, maxLen, marginNM int, jitter bool, slackNM int) *layout.Layout {
	const step = 8 // positions stay pixel-aligned at 8 nm/px
	cells := k * k
	widths := []int{64, 80, 96, 112}
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	shiftX, shiftY := 0, 0
	if jitter {
		perm = rng.Perm(cells)
	} else {
		shiftX, shiftY = step*rng.Intn(slackNM/step+1), step*rng.Intn(slackNM/step+1)
	}
	l := &layout.Layout{Name: name, TileNM: chipTileNM}
	for i := 0; i < cells; i++ {
		j := perm[i]
		w := widths[j%len(widths)]
		length := minLen
		if cells > 1 {
			length += (maxLen - minLen) * j / (cells - 1) / step * step
		}
		bw, bh := w, length
		if j%2 == 1 {
			bw, bh = length, w
		}
		// Centred in the cell unless jittered.
		offX := (pitchNM - 2*marginNM - bw) / step / 2
		offY := (pitchNM - 2*marginNM - bh) / step / 2
		if jitter {
			offX, offY = rng.Intn(2*offX+1), rng.Intn(2*offY+1)
		}
		l.Rects = append(l.Rects, layout.Rect{
			X: originNM + shiftX + (i%k)*pitchNM + marginNM + step*offX,
			Y: originNM + shiftY + (i/k)*pitchNM + marginNM + step*offY,
			W: bw, H: bh,
		})
	}
	if err := l.Validate(); err != nil {
		panic(fmt.Sprintf("opcbench: bar lattice produced an invalid layout: %v", err))
	}
	return l
}

// arrayLayout is an n×n array (pitch 256 nm) whose cells each hold one
// of `motifs` mirror images of the two-bar motif, inset by pitch/4 so a
// 64 nm halo sees nothing of the neighbours: the flow computes exactly
// `motifs` windows and serves the rest from the cache. The seed decides
// which cell gets which motif.
func arrayLayout(rng *rand.Rand, n, motifs int) *layout.Layout {
	const p = 256
	const m = p / 4
	base := []layout.Rect{{X: m, Y: m, W: p / 2, H: p / 8}, {X: m, Y: p / 2, W: p / 8, H: p / 4}}
	variant := func(v int) []layout.Rect {
		out := make([]layout.Rect, len(base))
		for i, r := range base {
			if v&1 != 0 {
				r.X = p - r.X - r.W
			}
			if v&2 != 0 {
				r.Y = p - r.Y - r.H
			}
			out[i] = r
		}
		return out
	}
	assign := make([]int, n*n)
	for i := range assign {
		assign[i] = i % motifs
	}
	rng.Shuffle(len(assign), func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
	l := &layout.Layout{Name: fmt.Sprintf("array%dx%d", n, n), TileNM: chipTileNM}
	for i, v := range assign {
		ox, oy := (i%n)*p, (i/n)*p
		for _, r := range variant(v) {
			l.Rects = append(l.Rects, layout.Rect{X: ox + r.X, Y: oy + r.Y, W: r.W, H: r.H})
		}
	}
	if err := l.Validate(); err != nil {
		panic(fmt.Sprintf("opcbench: array produced an invalid layout: %v", err))
	}
	return l
}

// planInproc builds the named in-process workload for a seed.
func planInproc(name string, seed int64, sz sizes) (*inprocPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	engine := fmt.Sprintf(`"method":"circleopt","kopt":%d,"iters":%d`, sz.kopt, sz.iters)
	switch name {
	case wlChip192:
		// Four bars inside the first 192-px window only: tile (1,*)'s
		// window starts at 768 nm, so the block (640 nm from 32, shifted
		// by at most 88) stays below that and exactly one of the four
		// windows is optimized. The Bluestein path is what is measured;
		// three more windows would only multiply the same loop.
		return &inprocPlan{
			layout: barLattice(rng, "chip192", 32, 320, 2, 168, 240, 40, false, 88),
			spec:   fmt.Sprintf(`{"layout":%q,"grid":256,"tile_core":128,"tile_halo":32,"tile_workers":1,%s}`, layoutFile, engine),
		}, nil
	case wlChip128:
		// One bar per 512 nm cell: all sixteen 128-px windows are occupied.
		return &inprocPlan{
			layout:     barLattice(rng, "chip128", 0, 512, 4, 208, 328, 48, true, 0),
			spec:       fmt.Sprintf(`{"layout":%q,"grid":256,"tile_core":64,"tile_halo":32,"tile_workers":2,%s}`, layoutFile, engine),
			refWorkers: 1,
		}, nil
	case wlArray:
		const motifs = 4
		return &inprocPlan{
			layout:     arrayLayout(rng, sz.arrayN, motifs),
			spec:       fmt.Sprintf(`{"layout":%q,"grid":512,"tile_core":64,"tile_halo":16,"tile_workers":1,%s}`, layoutFile, engine),
			cache:      true,
			warm:       sz.warm,
			wantMisses: motifs,
			wantHits:   sz.arrayN*sz.arrayN - motifs,
		}, nil
	}
	return nil, fmt.Errorf("unknown in-process workload %q", name)
}

// planDaemon builds the daemon_rule job list for a seed. The seed
// shuffles the small jobs and the heavy jobs among themselves; where the
// heavy ones sit in the list is fixed (evenly spread, small jobs last),
// because with two closed-loop clients a heavy job drawn last leaves one
// client idle and lengthens the makespan by a tenth: that would be the
// seed's doing, not the daemon's.
func planDaemon(seed int64, sz sizes) *daemonPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &daemonPlan{layouts: map[string]*layout.Layout{}, clients: 2, maxActive: 2}
	var small, heavy []daemonJob
	for c := 1; c <= sz.smallCases; c++ {
		j := daemonJob{spec: fmt.Sprintf(`{"case":%d,"method":"circlerule","grid":512,"tile_core":64,"tile_halo":16}`, c)}
		small = append(small, j)
		if sz.smallTwice {
			small = append(small, j)
		}
	}
	for h := 0; h < sz.heavy; h++ {
		file := fmt.Sprintf("heavy%d.glp", h)
		p.layouts[file] = barLattice(rng, fmt.Sprintf("heavy%d", h), 0, 512, 4, 208, 328, 48, true, 0)
		j := daemonJob{heavy: true, spec: fmt.Sprintf(`{"layout":%q,"method":"circlerule","grid":1024,"tile_core":128,"tile_halo":32}`, file)}
		heavy = append(heavy, j, j)
	}
	rng.Shuffle(len(small), func(a, b int) { small[a], small[b] = small[b], small[a] })
	rng.Shuffle(len(heavy), func(a, b int) { heavy[a], heavy[b] = heavy[b], heavy[a] })
	every := (len(small) + len(heavy)) / len(heavy)
	for len(small)+len(heavy) > 0 {
		if len(heavy) > 0 && len(p.jobs)%every == 0 {
			p.jobs, heavy = append(p.jobs, heavy[0]), heavy[1:]
		} else {
			p.jobs, small = append(p.jobs, small[0]), small[1:]
		}
	}
	return p
}
