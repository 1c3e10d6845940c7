package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeed is not in reference.json, whose values belong to the full
// configuration.
const smokeSeed = "3"

type smokeResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// TestSmoke runs the real command, shrunken (-smoke: one CircleOpt
// iteration on one kernel, a 3×3 array, four daemon jobs), through every
// workload, the trace writer and the checks, and shows it failing on a
// corrupted shots.csv.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs every workload")
	}
	tmp := t.TempDir()
	build := func(dir, out, pkg string) {
		t.Helper()
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = dir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
	}
	bench := filepath.Join(tmp, "opcbench")
	daemon := filepath.Join(tmp, "cfaopcd")
	build(".", bench, ".")
	build(filepath.Join("..", ".."), daemon, "./cmd/cfaopcd")
	benchDir := filepath.Join(tmp, "benchmarks")
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(benchDir, "reference.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, workload, trace string, extra ...string) (smokeResult, int) {
		t.Helper()
		args := append([]string{"-smoke", "-daemon", daemon, "-work", filepath.Join(tmp, "work"), "-bench-dir", benchDir,
			"--workload", workload, "--seed", smokeSeed, "--seconds", "1", "--trace", trace}, extra...)
		out, err := exec.Command(bench, args...).Output()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r smokeResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not a result object: %v\n%s", err, out)
		}
		if t.Failed() || (code != 0 && len(extra) == 0) {
			t.Logf("output:\n%s", out)
		}
		return r, code
	}

	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r, code := run(t, w, "0")
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("exit %d, result %+v", code, r)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(r.Metrics), len(endToEnd))
			}
		})
	}

	for _, w := range []string{wlArray, wlDaemon} {
		t.Run("traced_"+w, func(t *testing.T) {
			jsonPath := filepath.Join(tmp, w+".json")
			r, code := run(t, w, "1", "-json", jsonPath)
			if code != 0 || !r.Correct {
				t.Fatalf("exit %d, result %+v", code, r)
			}
			for _, d := range perLayer {
				if _, ok := r.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want exactly the %d per-layer ones", len(r.Metrics), len(perLayer))
			}
			for _, name := range []string{"fft.ratio_192_256", "litho.lossgrad_ms.192", "checkpoint.sync_us", "harness.trace_overhead_ratio"} {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want it measured", name, r.Metrics[name].Value)
				}
			}
			var trace struct{ Spans []span }
			b, err := os.ReadFile(filepath.Join(benchDir, "out", "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for _, s := range trace.Spans {
				names[s.Name]++
				if s.EndMS < s.StartMS || s.SelfMS < -1e-6 {
					t.Errorf("span %d %s: start %v end %v self %v", s.ID, s.Name, s.StartMS, s.EndMS, s.SelfMS)
				}
			}
			want := []string{"job", "tile", "ilt.Mosaic.Optimize", "core.CircleOpt.OptimizeFromShots"}
			if w == wlDaemon {
				want = append(want, "submit", "queue", "run", "fetch")
			} else {
				want = append(want, "iteration")
			}
			for _, n := range want {
				if names[n] == 0 {
					t.Errorf("trace has no %q span (have %v)", n, names)
				}
			}
			for _, f := range []string{jsonPath, filepath.Join(benchDir, "out", "probes-"+w+".txt")} {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}

	for _, w := range []string{wlArray, wlDaemon} {
		t.Run("corrupt_"+w, func(t *testing.T) {
			r, code := run(t, w, "0", "-corrupt")
			if code == 0 || r.Correct {
				t.Fatalf("a corrupted shots.csv passed: exit %d, result %+v", code, r)
			}
		})
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// and workload names in the code from drifting apart.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
