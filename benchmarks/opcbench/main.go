// Command opcbench is the repository's benchmark: four named workloads
// measured end to end from outside the program under test, and — in a
// separate traced run — per-layer probes and spans that say which layer
// the time went to. See ../README.md.
//
//	bash benchmarks/run.sh --workload daemon_rule --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the result object the driver
// reads; the exit code is non-zero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cfaopc/internal/server"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	jsonPath  string
	daemonBin string
	workDir   string
	benchDir  string
	smoke     bool
	corrupt   bool
}

func (o options) sizes() sizes { return sizesFor(o.smoke) }

func main() {
	var (
		o      options
		trace  int
		child  bool
		cdir   string
		cworks int
	)
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 7, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from probes and a traced round")
	flag.StringVar(&o.jsonPath, "json", "", "also write every metric with quartiles, minimum and sample count to this file")
	flag.StringVar(&o.daemonBin, "daemon", "", "path of the cfaopcd binary under test (daemon_rule)")
	flag.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for inputs and artifacts")
	flag.StringVar(&o.benchDir, "bench-dir", "benchmarks", "directory holding reference.json; out/ is written beside it")
	flag.BoolVar(&o.smoke, "smoke", false, "shrunken configuration the smoke test runs")
	flag.BoolVar(&o.corrupt, "corrupt", false, "test hook: flip one byte of the first repetition's shots.csv before the checks, to show the command failing")
	flag.BoolVar(&child, "child", false, "internal: run one in-process repetition and print its report")
	flag.StringVar(&cdir, "child-dir", "", "internal: the child's directory")
	flag.IntVar(&cworks, "child-workers", 0, "internal: override tile_workers")
	flag.Parse()

	if child {
		err := runChild(childArgs{workload: o.workload, seed: o.seed, dir: cdir, traced: trace == 1, smoke: o.smoke, workers: cworks})
		if err != nil {
			fmt.Fprintln(os.Stderr, "opcbench child:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opcbench:", err)
		os.Exit(2)
	}
	if err := res.print(o); err != nil {
		fmt.Fprintln(os.Stderr, "opcbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	vals      map[string]sample
	failures  []string
	notes     []string
}

func newResult() *result { return &result{vals: map[string]sample{}} }

func (r *result) set(name string, v ...float64) { r.vals[name] = append(r.vals[name], v...) }
func (r *result) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// setFlow records the flow layer's metrics of one traced pass. Overhead
// is what the job spends outside its tiles; it is only defined where
// tiles run one at a time, so it is read from serial, a one-worker pass
// of the same job (the pass itself unless it ran two workers).
func (r *result) setFlow(pass, serial passReport) {
	r.set("flow.optimize_s", pass.OptimizeS)
	r.set("flow.raster_ms", pass.RasterMS)
	r.set("flow.overhead_s", serial.WallS-serial.OptimizeS)
	r.set("flow.overhead_ratio", (serial.WallS-serial.OptimizeS)/serial.WallS)
	r.set("flow.tile_ms_p50", median(pass.TileMS))
	r.set("flow.iter_ms_p50", median(pass.IterMS))
	r.set("flow.peak_bytes", float64(pass.PeakBytes))
	r.set("flow.alloc_mb_per_job", pass.AllocMB)
	r.set("flow.mallocs_per_job", pass.Mallocs)
}

// finish folds the checker's verdict into the result.
func (r *result) finish(c *checker) {
	r.failures = c.failures
	r.Correct = len(c.failures) == 0 && r.Failed == 0
}

func run(o options) (*result, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return nil, fmt.Errorf("-workload %q: want one of %s", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want a positive duration", o.seconds)
	}
	dir, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := newResult()
	c := &checker{}
	var tl traceLog
	start := time.Now()
	if o.trace {
		probes, err := runProbes(o.seed, o.sizes(), dir, c)
		if err != nil {
			return nil, err
		}
		for name, v := range probes.vals {
			res.set(name, v)
		}
		tl.add(probes.spans)
		out := filepath.Join(o.benchDir, "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(out, "probes-"+o.workload+".txt"), []byte(probes.benchstatText()), 0o644); err != nil {
			return nil, err
		}
	}
	if o.workload == wlDaemon {
		err = runDaemonWorkload(o, dir, start, res, c, &tl)
	} else {
		err = runInprocWorkload(o, dir, start, res, c, &tl)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := tl.write(filepath.Join(o.benchDir, "out", "trace-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	res.finish(c)
	return res, nil
}

// budgetLeft reports whether another repetition of the given cost still
// fits the measuring time.
func budgetLeft(o options, start time.Time, cost time.Duration) bool {
	return time.Since(start)+cost <= time.Duration(o.seconds*float64(time.Second))
}

// hostRun collects the host readings of a run's repetitions.
type hostRun struct {
	workload string
	readings []hostReading
}

func (h *hostRun) add(r hostReading) { h.readings = append(h.readings, r) }

// factors turns each repetition's host reading into the factor its times
// are scaled by, 1 ÷ the slowdown, and flags the repetitions that ran
// while the host was more than 1.15× slower than during the run's
// fastest. A run is time-boxed, so a noisy repetition is left out of the
// medians rather than re-run — unless that would leave fewer than three,
// when every repetition counts.
func (h *hostRun) factors() (factor []float64, keep []bool, noisy int) {
	n := len(h.readings)
	slow := make([]float64, n)
	fastest := math.Inf(1)
	for i, r := range h.readings {
		slow[i] = r.slowdown(h.workload)
		fastest = min(fastest, slow[i])
	}
	factor, keep = make([]float64, n), make([]bool, n)
	for i := range slow {
		factor[i] = 1 / slow[i]
		keep[i] = slow[i] <= 1.15*fastest
		if !keep[i] {
			noisy++
		}
	}
	if n-noisy < 3 {
		for i := range keep {
			keep[i] = true
		}
	}
	return factor, keep, noisy
}

// report records the harness's own per-layer metrics and returns the
// median slowdown for the run's note line.
func (h *hostRun) report(res *result) float64 {
	_, _, noisy := h.factors()
	var slow sample
	for _, r := range h.readings {
		res.set("harness.ref_ms", r.streamMS)
		slow = append(slow, r.slowdown(h.workload))
	}
	res.set("harness.host_slowdown", slow...)
	res.set("harness.noisy_reps", float64(noisy))
	return median(slow)
}

func parseSpec(js string) (*server.JobSpec, error) { return server.ParseSpec(strings.NewReader(js)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, the optional -json file, and
// last the result line.
func (r *result) print(o options) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type detailed struct {
		Unit string `json:"unit"`
		summary
	}
	final := map[string]metricValue{}
	detail := map[string]detailed{}
	fmt.Printf("# opcbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		s := r.vals[d.Name].summary()
		final[d.Name] = metricValue{Value: s.Median, Unit: d.Unit}
		detail[d.Name] = detailed{d.Unit, s}
		fmt.Printf("%-34s %14.6g %-6s q1 %.6g q3 %.6g min %.6g n %d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.Min, s.N)
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, f := range r.failures {
		fmt.Println("FAIL " + f)
	}
	if o.jsonPath != "" {
		b, err := json.MarshalIndent(map[string]any{
			"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
			"machine": map[string]any{"nproc": runtime.NumCPU(), "cpu": cpuModel(), "go": runtime.Version()},
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed,
			"failures": r.failures, "metrics": detail,
		}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
