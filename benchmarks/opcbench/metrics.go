package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one metric exactly as BENCHMARK.json does; the smoke
// test checks the two lists against each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, reported by every
// workload from the untraced repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.2},
	{"first_tile_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"shots", "count", lower, 0.2},
	{"quality_nm2", "nm2", lower, 0.2},
}

// Window edges the layer probes run at, and the workload each comes from.
var (
	fftSizes   = []int{96, 128, 192, 256}
	lithoSizes = []int{96, 128, 192}
	coreSizes  = []int{128, 192}
)

// perLayer lists every per-layer metric of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	sized := func(prefix, unit, better string, sizes []int) {
		for _, n := range sizes {
			add(fmt.Sprintf("%s.%d", prefix, n), unit, better)
		}
	}
	sized("fft.fft2d_us", "us", lower, fftSizes)
	sized("fft.fft2d_allocs", "count", lower, fftSizes)
	sized("fft.flop_computed", "flop", lower, fftSizes)
	add("fft.ratio_192_256", "ratio", lower)
	add("fft.ratio_96_128", "ratio", lower)
	add("fft.par2_speedup.128", "ratio", higher)

	sized("litho.new_ms", "ms", lower, lithoSizes)
	sized("litho.lossgrad_ms", "ms", lower, lithoSizes)
	sized("litho.lossgrad_allocs", "count", lower, lithoSizes)
	sized("litho.lossgrad_mb", "MB", lower, lithoSizes)
	add("litho.simulate_ms.256", "ms", lower)
	add("litho.fft_share_computed.192", "ratio", lower)

	sized("ilt.mosaic_ms_per_iter", "ms", lower, coreSizes)
	sized("core.stage2_ms_per_iter", "ms", lower, coreSizes)
	sized("core.render_us", "us", lower, coreSizes)
	sized("core.backward_us", "us", lower, coreSizes)
	sized("core.circles", "count", lower, coreSizes)

	add("geom.skeleton_ms.192", "ms", lower)
	add("geom.edt_ms.192", "ms", lower)
	add("geom.components_ms.192", "ms", lower)
	add("geom.coverrate_us", "us", lower)
	add("geom.rasterize_circles_ms.192", "ms", lower)
	add("fracture.circlerule_ms.192", "ms", lower)
	add("fracture.circlerule_allocs.192", "count", lower)
	add("fracture.circlerule_mb.192", "MB", lower)
	add("fracture.ordershots_ms", "ms", lower)
	add("fracture.writecsv_ms", "ms", lower)

	add("layout.index_ms", "ms", lower)
	add("layout.window_us.96", "us", lower)
	add("wcache.key_us.96", "us", lower)
	add("wcache.get_us", "us", lower)
	add("wcache.put_us", "us", lower)
	add("wcache.disk_get_us", "us", lower)
	add("wcache.hit_ratio_cold", "ratio", higher)
	add("wcache.hit_ratio_warm", "ratio", higher)
	add("checkpoint.append_us", "us", lower)
	add("checkpoint.sync_us", "us", lower)
	add("checkpoint.open_replay_ms.64", "ms", lower)

	add("flow.optimize_s", "s", lower)
	add("flow.raster_ms", "ms", lower)
	add("flow.overhead_s", "s", lower)
	add("flow.overhead_ratio", "ratio", lower)
	add("flow.tile_ms_p50", "ms", lower)
	add("flow.iter_ms_p50", "ms", lower)
	add("flow.par_efficiency", "ratio", higher)
	add("flow.peak_bytes", "B", lower)
	add("flow.alloc_mb_per_job", "MB", lower)
	add("flow.mallocs_per_job", "count", lower)
	add("flow.rule_job_s", "s", lower)
	add("flow.warm_wall_ms", "ms", lower)
	add("flow.disk_warm_wall_ms", "ms", lower)

	add("server.spawn_ms", "ms", lower)
	add("server.submit_ms", "ms", lower)
	add("server.queue_wait_ms_p50", "ms", lower)
	add("server.first_event_ms_p50", "ms", lower)
	add("server.run_ms_p50", "ms", lower)
	add("server.fetch_shots_ms_p50", "ms", lower)
	add("server.small_job_ms", "ms", lower)
	add("server.heavy_job_s", "s", lower)
	add("server.events_per_s", "1/s", higher)
	add("server.events_total", "count", lower)
	add("server.overhead_ratio", "ratio", lower)
	add("server.rejected", "count", lower)
	add("server.sse_reconnects", "count", lower)

	add("harness.ref_ms", "ms", lower)
	add("harness.host_slowdown", "ratio", lower)
	add("harness.noisy_reps", "count", lower)
	add("harness.traced_wall_s", "s", lower)
	add("harness.trace_overhead_ratio", "ratio", lower)
	return d
}

// sample is the set of readings behind one reported value.
type sample []float64

// summary is what the -json file and the text report carry beside the
// median the result line reports.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
}

func (s sample) summary() summary {
	if len(s) == 0 {
		return summary{}
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return summary{Median: quantile(v, 0.5), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), Min: v[0], N: len(v)}
}

func median(v []float64) float64 { return sample(v).summary().Median }

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

// What one burst of each kind takes on an undisturbed host of the kind
// the baseline was recorded on, in milliseconds.
const (
	streamNominalMS = 0.62
	serialNominalMS = 0.97
)

var (
	refBuf  = make([]float64, 1<<14) // 128 KiB: stays out of the workload's way in L2
	refSink uint64
)

// streamBurst times a fixed streaming multiply-add loop of the harness's
// own. It is throughput-bound like the transforms the program under
// test spends its time in: a busy sibling hyperthread on the host slows
// such code by up to half.
func streamBurst() float64 {
	start := threadCPU()
	for pass := 0; pass < 48; pass++ {
		k := 1 + float64(pass)*1e-9
		for i := range refBuf {
			refBuf[i] = refBuf[i]*k + 0.5
		}
	}
	return ms(threadCPU() - start)
}

// serialBurst times a fixed serial integer chain, which the same
// neighbour hardly slows at all; branchy integer code (geom, fracture)
// sits between the two.
func serialBurst() float64 {
	start := threadCPU()
	x := uint64(88172645463325252)
	for i := 0; i < 480_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return ms(threadCPU() - start)
}

// threadCPU is the CPU time of the calling thread. Bursts are timed in
// it, not in wall time, so that the guest's own scheduler putting the
// sampler aside for a busy workload thread does not read as a slow host;
// what the host takes away the guest cannot tell from running, so that
// still counts.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("opcbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// hostReading is the mean burst of each kind over one repetition.
type hostReading struct {
	streamMS, serialMS float64
}

// slowdown is how much slower than undisturbed the host ran code of the
// workload's kind: transform-bound workloads follow the streaming burst,
// the CircleRule daemon workload the geometric mean of the two.
func (r hostReading) slowdown(workload string) float64 {
	stream := r.streamMS / streamNominalMS
	if workload == wlDaemon {
		return math.Sqrt(stream * r.serialMS / serialNominalMS)
	}
	return stream
}

// hostSampler reads the host's speed while a repetition runs. This class
// of host takes up to half of a core's throughput away for minutes on
// end and does not report it as steal time: the guest sees the program
// under test simply run slower. Every 40 ms the harness's own otherwise
// idle thread times one burst of each kind (under two milliseconds, 4% of one
// vCPU); the means over a repetition say how fast the host was for it.
type hostSampler struct {
	stop chan struct{}
	done chan hostReading
}

func startHostSampler() *hostSampler {
	s := &hostSampler{stop: make(chan struct{}), done: make(chan hostReading, 1)}
	go func() {
		runtime.LockOSThread() // threadCPU must read one thread's clock
		defer runtime.UnlockOSThread()
		var sum hostReading
		n := 0.0
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			sum.streamMS += streamBurst()
			sum.serialMS += serialBurst()
			n++
			select {
			case <-s.stop:
				s.done <- hostReading{sum.streamMS / n, sum.serialMS / n}
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// reading stops the sampler and returns its means.
func (s *hostSampler) reading() hostReading {
	close(s.stop)
	return <-s.done
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
