package cfaopc_test

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles ./cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	cmd.Env = os.Environ()
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, msg)
	}
	return out
}

// TestCLIEndToEnd builds the command-line tools and drives the full
// artifact flow a user would: generate layouts, optimize one, and re-score
// the emitted shot list.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	bin := t.TempDir()
	genlayout := buildTool(t, bin, "genlayout")
	cfaopc := buildTool(t, bin, "cfaopc")
	evalmask := buildTool(t, bin, "evalmask")

	work := t.TempDir()
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, out)
		}
		return string(out)
	}

	// 1. Generate the suite (with GDS copies).
	out := run(genlayout, "-out", "layouts", "-gds")
	if !strings.Contains(out, "case10.glp") {
		t.Fatalf("genlayout output missing case10:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "layouts", "case4.gds")); err != nil {
		t.Fatalf("GDS file missing: %v", err)
	}

	// 2. Optimize case 4 from its GLP file with a fast configuration.
	out = run(cfaopc, "-layout", "layouts/case4.glp", "-grid", "128",
		"-iters", "10", "-out", "out")
	if !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc output unexpected:\n%s", out)
	}
	shotCSV := filepath.Join(work, "out", "case4_shots.csv")
	if _, err := os.Stat(shotCSV); err != nil {
		t.Fatalf("shot list missing: %v", err)
	}

	// 3. Re-score the shot list with evalmask; metrics must be reported.
	out = run(evalmask, "-layout", "layouts/case4.glp", "-shots",
		"out/case4_shots.csv", "-grid", "128")
	if !strings.Contains(out, "L2") || !strings.Contains(out, "shots") {
		t.Fatalf("evalmask output unexpected:\n%s", out)
	}

	// 4. GDS input path: optimizing from the GDS copy must agree on the
	// target (same layout, same shot-count ballpark).
	out = run(cfaopc, "-layout", "layouts/case4.gds", "-grid", "128",
		"-iters", "10", "-out", "out2", "-method", "develset")
	if !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc GDS run unexpected:\n%s", out)
	}

	// 5. Tiled full-chip path: halo windows optimized by concurrent tile
	// workers; the per-window stats and stitched metrics must print.
	out = run(cfaopc, "-layout", "layouts/case4.glp", "-grid", "128",
		"-iters", "8", "-tile-core", "64", "-tile-halo", "16",
		"-tile-workers", "4", "-out", "out3")
	if !strings.Contains(out, "flow: 4 windows") || !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc tiled run unexpected:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "out3", "case4_shots.csv")); err != nil {
		t.Fatalf("tiled shot list missing: %v", err)
	}
}

// TestCLIWorkerParity runs one small tiled CircleRule job three ways —
// in-process, on two tileworker subprocesses (-proc-workers with
// -worker-bin), and on a listening tileworker (-remote-hosts) — and
// requires the three shot lists to be the same bytes: the two ways of
// reaching a worker are one session protocol, and neither may change
// the output.
func TestCLIWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	bin := t.TempDir()
	cfaopc := buildTool(t, bin, "cfaopc")
	tileworker := buildTool(t, bin, "tileworker")

	// A listening worker on an OS-chosen port; its "listening on" log
	// line carries the bound address.
	host := exec.Command(tileworker, "-listen", "127.0.0.1:0")
	stderr, err := host.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		host.Process.Kill()
		host.Wait()
	}()
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatal("tileworker -listen exited before announcing its address")
	}
	go io.Copy(io.Discard, stderr)

	work := t.TempDir()
	// mark is the provenance tag every occupied tile line must carry.
	shots := func(name, mark string, transport ...string) []byte {
		t.Helper()
		args := append([]string{"-case", "4", "-grid", "128", "-method", "circlerule",
			"-tile-core", "64", "-tile-halo", "16", "-stream", "-out", name}, transport...)
		cmd := exec.Command(cfaopc, args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cfaopc %v: %v\n%s", args, err, out)
		}
		if bytes.Contains(out, []byte("workers: ")) {
			t.Fatalf("%s run degraded; the parity check would not measure the worker path:\n%s", name, out)
		}
		csv, err := os.ReadFile(filepath.Join(work, name, "case4_shots.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  tile ") && !strings.Contains(line, mark) {
				t.Fatalf("%s run: tile line lacks %q:\n%s", name, mark, out)
			}
		}
		return csv
	}
	ref := shots("inproc", "")
	if len(bytes.Split(ref, []byte("\n"))) < 3 {
		t.Fatalf("reference shot list is empty:\n%s", ref)
	}
	if got := shots("proc", "[proc]", "-proc-workers", "2", "-worker-bin", tileworker); !bytes.Equal(got, ref) {
		t.Error("-proc-workers shot list differs from the in-process run")
	}
	if got := shots("remote", "["+addr+"]", "-remote-hosts", addr); !bytes.Equal(got, ref) {
		t.Error("-remote-hosts shot list differs from the in-process run")
	}
}
