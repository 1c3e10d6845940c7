package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/core"
	"cfaopc/internal/fft"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/wcache"
)

// probeSet is the result of the layer probes: values by metric name, a
// benchstat-readable text dump, and the spans of the stage split.
type probeSet struct {
	vals  map[string]float64
	text  bytes.Buffer
	spans []span
}

// bench runs f a fixed number of times under testing.Benchmark (plus
// the one discovery call testing makes first, which serves as warm-up)
// and records the line benchstat reads.
func (p *probeSet) bench(name string, iters int, f func()) testing.BenchmarkResult {
	flag.Set("test.benchtime", fmt.Sprintf("%dx", iters))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	fmt.Fprintf(&p.text, "Benchmark%s \t%s\t%s\n", name, r.String(), r.MemString())
	return r
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
func mbPerOp(r testing.BenchmarkResult) float64 { return float64(r.AllocedBytesPerOp()) / (1 << 20) }

// probeWindow is the most-occupied window of a workload's layout, with
// the simulator the flow would bind to it.
type probeWindow struct {
	n      int
	target *grid.Real
	sim    *litho.Simulator
	newMS  float64 // cold litho.New for this window size
	ix     *layout.WindowIndex
	x0, y0 int
	lay    *layout.Layout
	gridN  int
	core   int
	halo   int
}

func busiestWindow(l *layout.Layout, gridN, coreN, halo, kopt int) (*probeWindow, error) {
	w := &probeWindow{n: coreN + 2*halo, ix: layout.NewWindowIndex(l, gridN), lay: l, gridN: gridN, core: coreN, halo: halo}
	best := -1
	for cy := 0; cy < gridN; cy += coreN {
		for cx := 0; cx < gridN; cx += coreN {
			if occ := w.ix.Occupancy(cx-halo, cy-halo, w.n, w.n); occ > best {
				best, w.x0, w.y0 = occ, cx-halo, cy-halo
			}
		}
	}
	w.target, _ = w.ix.Window(w.x0, w.y0, w.n, w.n)
	start := time.Now()
	sim, err := windowSim(l, gridN, w.n, kopt)
	w.newMS = ms(time.Since(start))
	w.sim = sim
	return w, err
}

// runProbes times the public functions of every layer below the flow
// on the windows the workloads really use. It is the same for every
// workload: a change to one layer shows in every workload's traced run.
func runProbes(seed int64, sz sizes, dir string, c *checker) (*probeSet, error) {
	testing.Init()
	p := &probeSet{vals: map[string]float64{}}
	set := func(name string, v float64) { p.vals[name] = v }

	// FFT by window edge. 192 and 96 are not powers of two.
	fftUS := map[int]float64{}
	for _, n := range fftSizes {
		g := randomComplex(n, seed)
		r := p.bench(fmt.Sprintf("FFT2D/%d", n), 5, func() { fft.Forward2D(g) })
		fftUS[n] = nsPerOp(r) / 1e3
		set(fmt.Sprintf("fft.fft2d_us.%d", n), fftUS[n])
		set(fmt.Sprintf("fft.fft2d_allocs.%d", n), float64(r.AllocsPerOp()))
		set(fmt.Sprintf("fft.flop_computed.%d", n), 5*float64(n*n)*math.Log2(float64(n*n)))
	}
	set("fft.ratio_192_256", fftUS[192]/fftUS[256])
	set("fft.ratio_96_128", fftUS[96]/fftUS[128])
	ga, gb := randomComplex(128, seed), randomComplex(128, seed+1)
	const parIters = 40
	one := p.bench("FFT2DSerial2/128", parIters, func() { fft.Forward2D(ga); fft.Forward2D(gb) })
	two := p.bench("FFT2DPar2/128", parIters, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); fft.Forward2D(ga) }()
		go func() { defer wg.Done(); fft.Forward2D(gb) }()
		wg.Wait()
	})
	set("fft.par2_speedup.128", nsPerOp(one)/nsPerOp(two))

	// Windows: 96 from the array, 128 and 192 from the chips, and the
	// 192-px window of a heavy CircleRule layout for geom and fracture.
	plans := map[int]*probeWindow{}
	for _, wl := range []string{wlArray, wlChip128, wlChip192} {
		ip, err := planInproc(wl, seed, sz)
		if err != nil {
			return nil, err
		}
		spec, err := parseSpec(ip.spec)
		if err != nil {
			return nil, err
		}
		w, err := busiestWindow(ip.layout, spec.GridN, spec.TileCore, spec.TileHalo, fullSizes.kopt)
		if err != nil {
			return nil, err
		}
		plans[w.n] = w
	}
	for _, n := range lithoSizes {
		w := plans[n]
		set(fmt.Sprintf("litho.new_ms.%d", n), w.newMS)
		r := p.bench(fmt.Sprintf("LossGrad/%d", n), 2, func() { w.sim.LossGrad(w.target, w.target, 1, 1) })
		set(fmt.Sprintf("litho.lossgrad_ms.%d", n), nsPerOp(r)/1e6)
		set(fmt.Sprintf("litho.lossgrad_allocs.%d", n), float64(r.AllocsPerOp()))
		set(fmt.Sprintf("litho.lossgrad_mb.%d", n), mbPerOp(r))
	}
	// One LossGrad is two corners of (1 + K) transforms forward and
	// (K + 1) back: 4K + 4 two-dimensional FFTs.
	transforms := float64(4*fullSizes.kopt + 4)
	set("litho.fft_share_computed.192", transforms*fftUS[192]/1e3/p.vals["litho.lossgrad_ms.192"])
	qsim, err := qualitySim()
	if err != nil {
		return nil, err
	}
	full := plans[192].lay.Rasterize(qualityGrid)
	r := p.bench("Simulate/256", 1, func() { qsim.Simulate(full) })
	set("litho.simulate_ms.256", nsPerOp(r)/1e6)

	for _, n := range coreSizes {
		p.stageSplit(plans[n], n == 128, c)
	}

	heavy := planDaemon(seed, sz)
	hw, err := busiestWindow(heavy.layouts["heavy0.glp"], 1024, 128, 32, fullSizes.kopt)
	if err != nil {
		return nil, err
	}
	p.geomProbes(hw)
	if err := p.storageProbes(plans[96], dir); err != nil {
		return nil, err
	}
	return p, nil
}

// engineConfigs mirrors what the circleopt engine derives from a job
// spec for one window; the stage split below checks it against the
// unsplit call.
func engineConfigs(sim *litho.Simulator, iters int) (core.Config, fracture.CircleRuleConfig) {
	rule := fracture.DefaultCircleRuleConfig(sim.DX)
	rule.SampleDist = max(1, int(32/sim.DX))
	cfg := core.DefaultConfig(sim.DX)
	cfg.Iterations = iters
	cfg.Gamma = 3 / sim.DX
	return cfg, rule
}

// stageSplit calls the public pieces core.CircleOpt.Optimize is made of
// — ilt.Mosaic.Optimize, fracture.CircleRule, OptimizeFromShots — under
// spans. With verify set it runs the engine's own iteration counts and
// then the unsplit Optimize, and requires byte-equal shots, which proves
// the split measures the real pipeline; without, a few iterations give
// the per-iteration costs at a window too slow to run twice.
func (p *probeSet) stageSplit(w *probeWindow, verify bool, c *checker) {
	stage1Iters, stage2Iters := 3.0, 2.0
	if verify {
		stage1Iters, stage2Iters = 12, float64(fullSizes.iters)
	}
	cfg, rule := engineConfigs(w.sim, int(stage2Iters))
	job := fmt.Sprintf("stage-split-%d", w.n)
	t0 := time.Now()
	at := func() float64 { return ms(time.Since(t0)) }
	spans := []span{{ID: 1, Name: "optimize-split", Job: job}}
	under := func(name string, f func()) float64 {
		s := span{ID: len(spans) + 1, Parent: 1, Name: name, Job: job, StartMS: at()}
		f()
		s.EndMS = at()
		spans = append(spans, s)
		return s.EndMS - s.StartMS
	}

	mcfg := ilt.DefaultConfig()
	mcfg.Iterations = int(stage1Iters)
	mcfg.WL2, mcfg.WPVB = cfg.WL2, cfg.WPVB
	var rough *grid.Real
	mosaicMS := under("ilt.Mosaic.Optimize", func() { rough = (&ilt.Mosaic{Cfg: mcfg}).Optimize(w.sim, w.target) })
	var seeds []geom.Circle
	under("fracture.CircleRule", func() { seeds = fracture.CircleRule(rough, rule) })
	opt := &core.CircleOpt{Cfg: cfg, RuleCfg: rule}
	var split *core.Result
	stage2MS := under("core.CircleOpt.OptimizeFromShots", func() { split = opt.OptimizeFromShots(w.sim, w.target, seeds) })
	spans[0].EndMS = at()
	p.spans = append(p.spans, spans...)

	p.vals[fmt.Sprintf("ilt.mosaic_ms_per_iter.%d", w.n)] = mosaicMS / stage1Iters
	p.vals[fmt.Sprintf("core.stage2_ms_per_iter.%d", w.n)] = stage2MS / stage2Iters
	p.vals[fmt.Sprintf("core.circles.%d", w.n)] = float64(len(seeds))
	fmt.Fprintf(&p.text, "BenchmarkMosaicIter/%d \t%.0f\t%.0f ns/op\n", w.n, stage1Iters, mosaicMS*1e6/stage1Iters)
	fmt.Fprintf(&p.text, "BenchmarkStage2Iter/%d \t%.0f\t%.0f ns/op\n", w.n, stage2Iters, stage2MS*1e6/stage2Iters)

	params := split.Params
	var dense *core.Dense
	r := p.bench(fmt.Sprintf("CoreRender/%d", w.n), 10, func() { dense = core.Render(params, cfg, w.n, w.n, true) })
	p.vals[fmt.Sprintf("core.render_us.%d", w.n)] = nsPerOp(r) / 1e3
	r = p.bench(fmt.Sprintf("CoreBackward/%d", w.n), 10, func() { core.Backward(params, cfg, dense, w.target) })
	p.vals[fmt.Sprintf("core.backward_us.%d", w.n)] = nsPerOp(r) / 1e3

	if verify {
		whole := opt.Optimize(w.sim, w.target)
		if !bytes.Equal(shotBytes(whole.Shots, w.sim.DX), shotBytes(split.Shots, w.sim.DX)) {
			c.failf("stage split at %d px: %d shots differ from the unsplit Optimize's %d", w.n, len(split.Shots), len(whole.Shots))
		}
	}
}

func shotBytes(shots []geom.Circle, dx float64) []byte {
	var b bytes.Buffer
	if err := fracture.WriteShotsCSV(&b, shots, dx); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return b.Bytes()
}

// geomProbes times the five geom functions and the CircleRule path on
// the busiest window of a heavy daemon job (192 px at 2 nm/px).
func (p *probeSet) geomProbes(w *probeWindow) {
	t := w.target
	ms1 := func(name, metric string, iters int, f func()) {
		p.vals[metric] = nsPerOp(p.bench(name, iters, f)) / 1e6
	}
	ms1("GeomSkeleton/192", "geom.skeleton_ms.192", 5, func() { geom.Skeleton(t) })
	ms1("GeomEDT/192", "geom.edt_ms.192", 5, func() { geom.DistanceTransform(t) })
	ms1("GeomComponents/192", "geom.components_ms.192", 5, func() { geom.Components(t, true) })

	rule := fracture.DefaultCircleRuleConfig(w.sim.DX)
	var shots []geom.Circle
	r := p.bench("CircleRule/192", 3, func() { shots = fracture.CircleRule(t, rule) })
	p.vals["fracture.circlerule_ms.192"] = nsPerOp(r) / 1e6
	p.vals["fracture.circlerule_allocs.192"] = float64(r.AllocsPerOp())
	p.vals["fracture.circlerule_mb.192"] = mbPerOp(r)

	if len(shots) > 0 {
		probe := shots[len(shots)/2]
		p.vals["geom.coverrate_us"] = nsPerOp(p.bench("GeomCoverRate", 200, func() { geom.CoverRate(probe, t) })) / 1e3
	}
	ms1("GeomRasterizeCircles/192", "geom.rasterize_circles_ms.192", 5, func() { geom.RasterizeCircles(w.n, w.n, shots) })
	// Ordering and writing are per job, not per window: time them on a
	// job-sized list, the window's shots once per tile of the 8×8 plan.
	var jobShots []geom.Circle
	for i := 0; i < 64; i++ {
		for _, s := range shots {
			jobShots = append(jobShots, geom.Circle{X: s.X + float64(i%8*128), Y: s.Y + float64(i/8*128), R: s.R})
		}
	}
	ms1("FractureOrderShots", "fracture.ordershots_ms", 2, func() { fracture.OrderShots(jobShots) })
	ms1("FractureWriteCSV", "fracture.writecsv_ms", 5, func() { fracture.WriteShotsCSV(io.Discard, jobShots, w.sim.DX) })
}

// storageProbes times what a cache-served tile costs: rasterize, key,
// lookup, journal append and sync; and the Put side beside them.
func (p *probeSet) storageProbes(w *probeWindow, dir string) error {
	us := func(name, metric string, iters int, f func()) {
		p.vals[metric] = nsPerOp(p.bench(name, iters, f)) / 1e3
	}
	p.vals["layout.index_ms"] = nsPerOp(p.bench("LayoutIndex", 20, func() { layout.NewWindowIndex(w.lay, w.gridN) })) / 1e6
	us("LayoutWindow/96", "layout.window_us.96", 200, func() { w.ix.Window(w.x0, w.y0, w.n, w.n) })

	desc := wcache.WindowDesc{W: w.n, H: w.n, Raster: w.target.Data, CoreX: w.halo, CoreY: w.halo, CoreW: w.core, CoreH: w.core}
	for _, s := range w.ix.WindowSpans(w.x0, w.y0, w.n, w.n) {
		desc.Spans = append(desc.Spans, wcache.Span(s))
	}
	us("WCacheKey/96", "wcache.key_us.96", 200, func() { wcache.WindowKey("opcbench", desc) })

	cacheDir := filepath.Join(dir, "probe-wcache")
	cache, err := wcache.New(wcache.Config{Dir: cacheDir})
	if err != nil {
		return err
	}
	entry := &wcache.Entry{Path: "primary", Attempts: 1, Iters: 18}
	for i := 0; i < 6; i++ {
		entry.Shots = append(entry.Shots, geom.Circle{X: float64(20 + 8*i), Y: 40, R: 5})
	}
	const keys = 20
	key := func(i int) wcache.Key { return wcache.WindowKey(fmt.Sprint("opcbench-", i%keys), desc) }
	i := 0
	us("WCachePut", "wcache.put_us", keys, func() { cache.Put(key(i), entry); i++ })
	i = 0
	us("WCacheGet", "wcache.get_us", 200, func() { cache.Get(key(i)); i++ })
	// Each disk probe opens a fresh cache over the same directory, so
	// every Get reads, verifies and decodes an entry file.
	i = 0
	var fresh *wcache.Cache
	r := p.bench("WCacheDiskGet", keys-1, func() {
		if i%keys == 0 {
			fresh, _ = wcache.New(wcache.Config{Dir: cacheDir})
		}
		if _, ok := fresh.Get(key(i)); !ok {
			panic("opcbench: disk-tier probe missed an entry it just wrote")
		}
		i++
	})
	p.vals["wcache.disk_get_us"] = nsPerOp(r) / 1e3

	// A tile record is a few hundred bytes; the flow syncs after each.
	header := []byte("opcbench-probe")
	payload := bytes.Repeat([]byte{0xA5}, 512)
	path := filepath.Join(dir, "probe.ckpt")
	j, _, err := checkpoint.Open(path, header)
	if err != nil {
		return err
	}
	// 64 records in all (the discovery call makes one), for the replay.
	us("CheckpointAppend", "checkpoint.append_us", 31, func() {
		if err := j.Append(payload); err != nil {
			panic(err)
		}
	})
	us("CheckpointAppendSync", "checkpoint.sync_us", 31, func() {
		if err := j.Append(payload); err != nil {
			panic(err)
		}
		if err := j.Sync(); err != nil {
			panic(err)
		}
	})
	p.vals["checkpoint.sync_us"] -= p.vals["checkpoint.append_us"] // the probe timed both
	if err := j.Close(); err != nil {
		return err
	}
	r = p.bench("CheckpointOpenReplay/64", 5, func() {
		jr, recs, err := checkpoint.Open(path, header)
		if err != nil || len(recs) != 64 {
			panic(fmt.Sprintf("opcbench: journal replay returned %d records, %v", len(recs), err))
		}
		jr.Close()
	})
	p.vals["checkpoint.open_replay_ms.64"] = nsPerOp(r) / 1e6
	return nil
}

func randomComplex(n int, seed int64) *grid.Complex {
	rng := rand.New(rand.NewSource(seed))
	g := grid.NewComplex(n, n)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64(), rng.Float64())
	}
	return g
}

// benchstatText prefixes the dump with the header benchstat expects.
func (p *probeSet) benchstatText() string {
	return "goos: linux\npkg: cfaopc/benchmarks/opcbench\n" + strings.TrimSpace(p.text.String()) + "\n"
}
