package cfaopc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/server"
)

// tools is every binary under ./cmd. The ones marked driven are run end
// to end by a test below; the rest only have to build and answer -h.
var tools = []struct {
	name   string
	driven bool
}{
	{"cfaopc", true},
	{"cfaopcd", true},
	{"evalmask", true},
	{"genlayout", true},
	{"kernelinfo", true},
	{"paperbench", false},
	{"tileworker", true},
}

// binDir holds the tools this test binary built, all in one pass the
// first time a test asks for one: TestMain creates it and removes it
// after the run.
var (
	binDir string
	binMu  sync.Mutex
	built  bool
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cfaopc-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTools compiles every tool under ./cmd into binDir with one go
// build, the first time a test asks for a tool, and returns a lookup
// from tool name to binary path.
func buildTools(t *testing.T) func(name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	binMu.Lock()
	defer binMu.Unlock()
	if !built {
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/...")
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build ./cmd/...: %v\n%s", err, msg)
		}
		built = true
	}
	return func(name string) string { return filepath.Join(binDir, name) }
}

// TestCLIToolsBuildAndUsage keeps the tools table equal to ./cmd and
// smoke-runs -h on every binary no other test executes.
func TestCLIToolsBuildAndUsage(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != len(tools) {
		t.Fatalf("cmd/ holds %d binaries, the tools table %d", len(dirs), len(tools))
	}
	for i, d := range dirs {
		if d.Name() != tools[i].name {
			t.Fatalf("cmd/%s is missing from the tools table (sorted; entry %d is %s)", d.Name(), i, tools[i].name)
		}
	}
	bin := buildTools(t)
	for _, tool := range tools {
		if tool.driven {
			continue
		}
		out, err := exec.Command(bin(tool.name), "-h").CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("Usage of")) {
			t.Errorf("%s -h: %v\n%s", tool.name, err, out)
		}
	}
	// A case outside the suite is refused in one line, not a panic.
	for _, id := range []string{"0", "11"} {
		cmd := exec.Command(bin("paperbench"), "-cases", id)
		out, _ := cmd.CombinedOutput()
		if cmd.ProcessState.ExitCode() != 1 || !bytes.Equal(out, []byte("paperbench: case "+id+": the suite is cases 1..10\n")) {
			t.Errorf("paperbench -cases %s: exit %d\n%s", id, cmd.ProcessState.ExitCode(), out)
		}
	}
}

// TestEveryInternalPackageIsShipped fails, naming the orphan, when an
// internal package is no longer a dependency of any binary or example:
// its own tests would keep passing, so nothing else notices. The test
// kits under internal/testkit are the exception: only tests import them.
func TestEveryInternalPackageIsShipped(t *testing.T) {
	list := func(args ...string) []string {
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	shipped := map[string]bool{}
	for _, pkg := range list("-deps", "./cmd/...", "./examples/...") {
		shipped[pkg] = true
	}
	for _, pkg := range list("./internal/...") {
		if !shipped[pkg] && !strings.HasPrefix(pkg, "cfaopc/internal/testkit/") {
			t.Errorf("%s is imported by nothing under ./cmd or ./examples", pkg)
		}
	}
}

// TestCLIEndToEnd builds the command-line tools and drives the full
// artifact flow a user would: generate layouts, optimize one, and re-score
// the emitted shot list.
func TestCLIEndToEnd(t *testing.T) {
	bin := buildTools(t)
	genlayout, cfaopc, evalmask := bin("genlayout"), bin("cfaopc"), bin("evalmask")

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
	// target (same layout, same shot-count ballpark), and evalmask reads
	// the same .gds file to re-score the shot list to the printed numbers.
	out = run(cfaopc, "-layout", "layouts/case4.gds", "-grid", "128",
		"-iters", "10", "-out", "out2", "-method", "develset")
	if !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc GDS run unexpected:\n%s", out)
	}
	printed, scored := metricsLine(t, out), metricsLine(t, run(evalmask, "-layout", "layouts/case4.gds",
		"-shots", "out2/case4_shots.csv", "-grid", "128"))
	if printed != scored {
		t.Errorf("GDS run: cfaopc printed %q, evalmask scores its shot CSV %q", printed, scored)
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
// in-process, on two worker subprocesses (-proc-workers, which
// re-executes cfaopc), and on a listening tileworker (-remote-hosts) — and
// requires the three shot lists to be the same bytes: the two ways of
// reaching a worker are one session protocol, and neither may change
// the output.
func TestCLIWorkerParity(t *testing.T) {
	bin := buildTools(t)
	cfaopc, tileworker := bin("cfaopc"), bin("tileworker")

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
	if got := shots("proc", "[proc]", "-proc-workers", "2"); !bytes.Equal(got, ref) {
		t.Error("-proc-workers shot list differs from the in-process run")
	}
	if got := shots("remote", "["+addr+"]", "-remote-hosts", addr); !bytes.Equal(got, ref) {
		t.Error("-remote-hosts shot list differs from the in-process run")
	}
}

// runCLI runs one cfaopc invocation in dir and returns its combined
// output, failing the test on a non-zero exit.
func runCLI(t *testing.T, dir, cfaopc string, args ...string) string {
	t.Helper()
	cmd := exec.Command(cfaopc, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cfaopc %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func readFile(t *testing.T, path ...string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCLIFlagsEqualJobSpec gives one job to cfaopc twice — as flags and
// as a -job JSON file — in-process and on two worker subprocesses. Flags
// and JSON are two spellings of one spec on one run path, so the shot
// CSV and the streamed mask PGM must be the same bytes all four times.
func TestCLIFlagsEqualJobSpec(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	spec := `{"case":4,"grid":128,"method":"circlerule","fallback":"none","tile_core":64,"tile_halo":16,"tile_workers":2}`
	if err := os.WriteFile(filepath.Join(work, "job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-case", "4", "-grid", "128", "-method", "circlerule", "-fallback", "none",
		"-tile-core", "64", "-tile-halo", "16", "-tile-workers", "2", "-stream"}

	var refShots, refMask []byte
	for _, transport := range [][]string{nil, {"-proc-workers", "2"}} {
		name := "inproc"
		if transport != nil {
			name = "proc"
		}
		out := runCLI(t, work, cfaopc, append(append(flags, "-mask-out", name+".pgm", "-out", name+"-flags"), transport...)...)
		if transport != nil && (!strings.Contains(out, "[proc]") || strings.Contains(out, "workers: ")) {
			t.Fatalf("-proc-workers run did not stay on its workers:\n%s", out)
		}
		shots, mask := readFile(t, work, name+"-flags", "case4_shots.csv"), readFile(t, work, name+".pgm")
		if refShots == nil {
			refShots, refMask = shots, mask
			if len(bytes.Split(refShots, []byte("\n"))) < 3 || !bytes.HasPrefix(refMask, []byte("P5\n128 128\n255\n")) {
				t.Fatalf("reference artifacts look empty: %d shot bytes, %d mask bytes", len(refShots), len(refMask))
			}
		}
		runCLI(t, work, cfaopc, append([]string{"-job", "job.json", "-out", name + "-job"}, transport...)...)
		for what, got := range map[string][2][]byte{
			"flags shots": {shots, refShots},
			"flags mask":  {mask, refMask},
			"-job shots":  {readFile(t, work, name+"-job", "shots.csv"), refShots},
			"-job mask":   {readFile(t, work, name+"-job", "mask.pgm"), refMask},
		} {
			if !bytes.Equal(got[0], got[1]) {
				t.Errorf("%s run: %s differ from the in-process flag run", name, what)
			}
		}
	}

	// A spec key given beside -job would be silently shadowed; a zero the
	// wire format reads as "default" would be silently replaced. Both are
	// refused.
	for _, bad := range [][]string{
		{"-job", "job.json", "-grid", "128"},
		{"-case", "4", "-tile-core", "64", "-tile-halo", "0"},
		{"-case", "4", "-tile-halo", "16"},
	} {
		cmd := exec.Command(cfaopc, bad...)
		cmd.Dir = work
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("cfaopc %v succeeded:\n%s", bad, out)
		}
	}
}

// TestCLIParentPartialJournalResumes holds resume to a journal cut after
// its fourth finished tile, as a kill leaves it: partial.ckpt, recorded at
// numerics v4 by `-case 7 -grid 512 -tile-core 128 -tile-halo 32 -method
// circleopt -tile-workers 1 -checkpoint` (header and the first four tile
// records of the whole run's journal). This build resumes the finished
// tiles, recomputes the rest and lands on the shot list the parent's
// uninterrupted run wrote — in-process at either lane count and on worker
// subprocesses. The journal the parent's cfaopc wrote under numerics v3,
// its since-removed -partial-every 5 and a SIGKILL (partial_v3.ckpt:
// the same four tiles behind mid-tile snapshots) is refused at its header,
// as a user-supplied journal of other arithmetic always is.
func TestCLIParentPartialJournalResumes(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	if err := os.WriteFile(filepath.Join(work, "v3.ckpt"), readFile(t, "testdata", "parent", "partial_v3.ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	refuse := exec.Command(cfaopc, "-case", "7", "-grid", "512", "-tile-core", "128", "-tile-halo", "32",
		"-method", "circleopt", "-stream", "-checkpoint", "v3.ckpt", "-out", "refused")
	refuse.Dir = work
	if out, err := refuse.CombinedOutput(); err == nil || !bytes.Contains(out, []byte("journal header does not match")) {
		t.Errorf("cfaopc over the parent's v3 journal: %v\n%s", err, out)
	}
	journal, want := readFile(t, "testdata", "parent", "partial.ckpt"), readFile(t, "testdata", "parent", "partial_case7_shots.csv")
	for _, pool := range [][]string{{"-tile-workers", "1"}, {"-tile-workers", "2"}, {"-proc-workers", "2"}} {
		if err := os.WriteFile(filepath.Join(work, "partial.ckpt"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		out := runCLI(t, work, cfaopc, append([]string{"-case", "7", "-grid", "512", "-tile-core", "128", "-tile-halo", "32",
			"-method", "circleopt", "-stream", "-checkpoint", "partial.ckpt", "-out", "resumed"}, pool...)...)
		// Tile 3 is the fourth finished tile: unoccupied, so it has no line.
		if n, tiles := strings.Count(out, "[resumed]"), strings.Count(out, "\n  tile "); n != 3 || tiles != 11 ||
			!strings.Contains(out, " 4 resumed from checkpoint") || strings.Contains(out, "workers: ") {
			t.Errorf("%v: %d of %d tile lines resumed, want 3 of 11 and 4 in the summary:\n%s", pool, n, tiles, out)
		}
		if !bytes.Equal(readFile(t, work, "resumed", "case7_shots.csv"), want) {
			t.Errorf("%v: shot CSV resumed from the parent's journal differs from the parent's uninterrupted run", pool)
		}
	}
}

// TestCLIReplayTile drives tileworker's replay against the quarantine
// bundle a parent commit wrote (internal/flow/testdata/parent). Its tile
// failed only under the fault script the bundle also carries, which
// replay no longer reads: the window replays clean, so the failure does
// not reproduce and the recorded engine counts as a fix. A damaged copy
// is refused with the frame reader's typed error — torn and CRC,
// observed through a binary.
func TestCLIReplayTile(t *testing.T) {
	tileworker := buildTools(t)("tileworker")
	bundle := readFile(t, "internal", "flow", "testdata", "parent", "tile0003.qrb")
	work := t.TempDir()
	torn := bundle[:len(bundle)/2]
	flipped := append([]byte(nil), bundle...)
	flipped[len(flipped)/2] ^= 0xff
	for name, data := range map[string][]byte{"good.qrb": bundle, "torn.qrb": torn, "flipped.qrb": flipped} {
		if err := os.WriteFile(filepath.Join(work, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"good.qrb"}, 2, "NOT REPRODUCED"},
		{[]string{"-fixed", "circlerule", "good.qrb"}, 0, "FIXED: primary"},
		{[]string{"torn.qrb"}, 1, "torn"},
		{[]string{"flipped.qrb"}, 1, "CRC"},
	} {
		cmd := exec.Command(tileworker, tc.args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != tc.exit || !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("tileworker %v: exit %d (%v), want %d and %q in:\n%s", tc.args, got, err, tc.exit, tc.want, out)
		}
	}
}

// TestCLITileworkerUsage: tileworker either listens or replays one
// bundle. A command line that mixes the two modes, names more than one
// bundle, or names neither exits 1 with the usage line before it
// listens or reads a file.
func TestCLITileworkerUsage(t *testing.T) {
	tileworker := buildTools(t)("tileworker")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0", "a.qrb"},
		{"-fingerprint", "fp", "a.qrb"},
		{"-handshake", "1s", "a.qrb"},
		{"-fixed", "circlerule"},
		{"-fixed", "circlerule", "-listen", "127.0.0.1:0"},
		{"a.qrb", "b.qrb"},
		{},
	} {
		cmd := exec.CommandContext(ctx, tileworker, args...)
		cmd.Dir = t.TempDir()
		out, _ := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != 1 || !bytes.HasPrefix(out, []byte("tileworker: usage: tileworker -listen addr")) {
			t.Errorf("tileworker %q: exit %d, want 1 and the usage line, got:\n%s", args, got, out)
		}
	}
}

// TestCLIKernelInfo drives kernelinfo on a small imaging condition: the
// cumulative energy column never decreases and ends at 1, and one PNG
// per kernel is written.
func TestCLIKernelInfo(t *testing.T) {
	kernelinfo := buildTools(t)("kernelinfo")
	dir := t.TempDir()
	out, err := exec.Command(kernelinfo, "-tile", "512", "-k", "4", "-png", dir, "-png-grid", "32").CombinedOutput()
	if err != nil {
		t.Fatalf("kernelinfo: %v\n%s", err, out)
	}
	var cumul []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == fmt.Sprint(len(cumul)) {
			cumul = append(cumul, f[3])
		}
	}
	if len(cumul) != 4 || cumul[3] != "1.0000" {
		t.Fatalf("cumulative column %q, want 4 rows ending at 1.0000:\n%s", cumul, out)
	}
	for i := 1; i < len(cumul); i++ {
		if cumul[i] < cumul[i-1] { // fixed-width 0.dddd / 1.0000: string order is numeric order
			t.Errorf("cumulative energy decreases at kernel %d: %q", i, cumul)
		}
	}
	for i := range cumul {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("kernel_%02d.png", i))); err != nil {
			t.Error(err)
		}
	}
}

// oneWindowRuns are the command lines whose shot CSVs the parent commit's
// single-window branch wrote into testdata/parent (no -tile-core: one
// window owning the whole grid).
var oneWindowRuns = []struct {
	name string
	args []string
}{
	{"circleopt128", []string{"-case", "3", "-grid", "128", "-iters", "6"}},
	{"circleopt192", []string{"-case", "3", "-grid", "192", "-iters", "4"}},
	{"develset", []string{"-case", "3", "-grid", "128", "-iters", "6", "-method", "develset"}},
	{"circlerule", []string{"-case", "3", "-grid", "128", "-method", "circlerule"}},
}

// TestCLIOneWindowParity: a run without -tile-core is a one-tile run of
// the one run path, and writes the bytes the parent's separate
// single-window branch wrote. Then the flags that branch refused, each
// doing on one window what it does on sixty-four.
func TestCLIOneWindowParity(t *testing.T) {
	bin := buildTools(t)
	cfaopc, tileworker := bin("cfaopc"), bin("tileworker")
	work := t.TempDir()
	for _, r := range oneWindowRuns {
		out := runCLI(t, work, cfaopc, append(r.args, "-out", r.name)...)
		if !strings.Contains(out, "flow: 1 windows (1 occupied)") {
			t.Errorf("%s did not run as one tile of the flow:\n%s", r.name, out)
		}
		want := readFile(t, "testdata", "parent", "onewindow_"+r.name+"_shots.csv")
		if !bytes.Equal(readFile(t, work, r.name, "case3_shots.csv"), want) {
			t.Errorf("%s: shot CSV differs from the parent's single-window run", r.name)
		}
	}

	// -checkpoint: SIGKILL the run once its journal is open, its one tile
	// in flight; the same command line recomputes the tile and lands on an
	// uninterrupted run's bytes.
	long := []string{"-case", "3", "-grid", "128", "-iters", "200"}
	runCLI(t, work, cfaopc, append(long, "-out", "uninterrupted")...)
	ckpt := append(long, "-checkpoint", "run.ckpt", "-out", "resumed")
	victim := exec.Command(cfaopc, ckpt...)
	victim.Dir = work
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if st, err := os.Stat(filepath.Join(work, "run.ckpt")); err == nil && st.Size() > 0 {
			break // the header: replay is done, the tile is next
		}
	}
	victim.Process.Kill()
	if err := victim.Wait(); err == nil {
		t.Log("run finished before the kill; the resume below replays a completed tile")
	}
	runCLI(t, work, cfaopc, ckpt...)
	if !bytes.Equal(readFile(t, work, "resumed", "case3_shots.csv"), readFile(t, work, "uninterrupted", "case3_shots.csv")) {
		t.Error("-checkpoint: resumed one-window run differs from the uninterrupted one")
	}

	// -mask-out: the PGM is the written shot list, rasterized.
	runCLI(t, work, cfaopc, "-case", "3", "-grid", "128", "-method", "circlerule", "-mask-out", "mask.pgm", "-out", "masked")
	shots, err := fracture.ReadShotsCSV(bytes.NewReader(readFile(t, work, "masked", "case3_shots.csv")), 2048.0/128)
	if err != nil {
		t.Fatal(err)
	}
	pgm := []byte("P5\n128 128\n255\n")
	for _, v := range geom.RasterizeCircles(128, 128, shots).Data {
		pgm = append(pgm, byte(255*v))
	}
	if !bytes.Equal(readFile(t, work, "mask.pgm"), pgm) {
		t.Error("-mask-out: PGM is not the rasterized shot list")
	}

	// -quarantine-dir: a window that times out with no fallback degrades
	// to empty, leaves a bundle, and the bundle replays.
	out := runCLI(t, work, cfaopc, "-case", "3", "-grid", "128", "-iters", "400", "-fallback", "none",
		"-tile-timeout", "150ms", "-tile-retries", "0", "-quarantine-dir", "q", "-out", "quarantined")
	if !strings.Contains(out, "[quarantined: q/tile0000.qrb]") {
		t.Fatalf("-quarantine-dir: no bundle reported:\n%s", out)
	}
	replay := exec.Command(tileworker, "q/tile0000.qrb")
	replay.Dir = work
	if msg, err := replay.CombinedOutput(); err != nil || !bytes.Contains(msg, []byte("REPRODUCED")) {
		t.Errorf("tileworker replay: %v\n%s", err, msg)
	}

	// One window has no halo: -tile-halo beside it overflows the grid, and
	// the wire format, which reads halo 0 as "default", cannot spell one
	// window at all — both are Validate's to refuse. So is doseopt, a
	// method removed after measurement: the refusal names the six that
	// remain.
	if err := os.WriteFile(filepath.Join(work, "one.json"), []byte(`{"case":3,"grid":128,"tile_core":128}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		args []string
		want string
	}{
		{[]string{"-case", "3", "-grid", "128", "-tile-halo", "16"}, "exceeds grid 128"},
		{[]string{"-job", "one.json"}, "exceeds grid 128"},
		{[]string{"-case", "3", "-grid", "128", "-iters", "6", "-method", "doseopt"},
			`unknown method "doseopt" (have circlerule | circleopt | greedy | develset | neuralilt | multiilt)`},
	} {
		cmd := exec.Command(cfaopc, bad.args...)
		cmd.Dir = work
		if msg, err := cmd.CombinedOutput(); err == nil || !bytes.Contains(msg, []byte(bad.want)) {
			t.Errorf("cfaopc %v: %v, want %q in\n%s", bad.args, err, bad.want, msg)
		}
	}
}

// TestCLIReportDescribesTheArtifact: the metrics cfaopc prints are those
// of the shot CSV it wrote — evalmask, given that CSV, prints the same
// numbers.
func TestCLIReportDescribesTheArtifact(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	runCLI(t, work, bin("genlayout"), "-out", "layouts")
	for _, r := range oneWindowRuns {
		if r.name == "circleopt192" {
			continue // 10.67 nm/px: the CSV's 0.1 nm rounding moves pixels
		}
		printed := metricsLine(t, runCLI(t, work, bin("cfaopc"), append(r.args, "-out", r.name)...))
		scored := metricsLine(t, runCLI(t, work, bin("evalmask"), "-layout", "layouts/case3.glp", "-grid", "128",
			"-shots", filepath.Join(r.name, "case3_shots.csv")))
		if printed != scored {
			t.Errorf("%s: cfaopc printed %q, its shot CSV scores %q", r.name, printed, scored)
		}
	}
}

// TestCLIEvalmaskFailureExits drives evalmask's two failure exits: a shot
// list that breaks the mask rule cfaopc checks is scored and exits 1 with
// the violation count, and a list that cannot be scored at all — empty, a
// non-finite row, a center off the grid — exits 1 with validateShots'
// reason before any simulation.
func TestCLIEvalmaskFailureExits(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	runCLI(t, work, bin("genlayout"), "-out", "layouts")
	for _, tc := range []struct{ name, rows, want string }{
		{"small", "1024.0,1024.0,8.0\n", "MRC: 1 violations\n"},
		{"empty", "", "invalid shot list empty.csv: shot list is empty\n"},
		{"nan", "NaN,1024.0,20.0\n", "invalid shot list nan.csv: shot 0 is not finite"},
		{"offgrid", "1024.0,1024.0,20.0\n4096.0,1024.0,20.0\n", "invalid shot list offgrid.csv: shot 1 center (256, 64) px outside the 128 px grid"},
	} {
		csv := tc.name + ".csv"
		if err := os.WriteFile(filepath.Join(work, csv), []byte("x_nm,y_nm,r_nm\n"+tc.rows), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin("evalmask"), "-layout", "layouts/case3.glp", "-grid", "128", "-shots", csv)
		cmd.Dir = work
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 1 || !bytes.Contains(out, []byte(tc.want)) {
			t.Errorf("evalmask -shots %s: exit %d, want 1 and %q in\n%s", csv, code, tc.want, out)
		}
	}
}

// TestCLIGenlayoutArray: genlayout -array refuses an array its tile
// cannot hold — a 3 nm or 2 nm pitch leaves a zero-nm motif bar, a
// negative tile has no pitch at all — in one line with exit 1, never a
// panic, and writes the 32 rects of a 4x4 array on a 2048 nm tile.
func TestCLIGenlayoutArray(t *testing.T) {
	genlayout := buildTools(t)("genlayout")
	work := t.TempDir()
	for _, args := range [][]string{
		{"-array", "600x600"},
		{"-array", "8x8", "-tile-nm", "16"},
		{"-array", "4x4", "-tile-nm", "-8"},
	} {
		cmd := exec.Command(genlayout, append([]string{"-out", "lay"}, args...)...)
		cmd.Dir = work
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 1 || bytes.Contains(out, []byte("goroutine")) ||
			bytes.Count(bytes.TrimSpace(out), []byte("\n")) != 0 {
			t.Errorf("genlayout %v: exit %d, want 1 and one line without a goroutine trace:\n%s", args, code, out)
		}
	}
	out := runCLI(t, work, genlayout, "-out", "lay", "-array", "4x4", "-tile-nm", "2048")
	if !strings.Contains(out, "lay/array4x4.glp: 32 rects") {
		t.Errorf("genlayout -array 4x4: want 32 rects written:\n%s", out)
	}
}

// TestCLIWindowCacheDisk drives the disk-backed window cache end to end
// on a repeated-cell array: a cold run computes one window and serves
// fifteen from memory, a second run on the same directory serves all
// sixteen (the first from disk), and both write the uncached run's shot
// CSV byte for byte.
func TestCLIWindowCacheDisk(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	runCLI(t, work, bin("genlayout"), "-out", ".", "-array", "4x4", "-tile-nm", "2048")
	run := []string{"-layout", "array4x4.glp", "-method", "circlerule", "-grid", "256",
		"-tile-core", "64", "-tile-halo", "16", "-stream"}
	runCLI(t, work, bin("cfaopc"), append(run, "-out", "uncached")...)
	ref := readFile(t, work, "uncached", "array4x4_shots.csv")
	cached := append(run, "-window-cache", "disk", "-cache-dir", "D")
	for _, leg := range []struct{ out, want string }{
		{"cold", "cache: 15 hits translated into place (0 from disk), 1 misses"},
		{"disk", "cache: 16 hits translated into place (1 from disk), 0 misses"},
	} {
		out := runCLI(t, work, bin("cfaopc"), append(cached, "-out", leg.out)...)
		if !strings.Contains(out, leg.want) {
			t.Errorf("%s run: want %q in:\n%s", leg.out, leg.want, out)
		}
		if got := readFile(t, work, leg.out, "array4x4_shots.csv"); !bytes.Equal(got, ref) {
			t.Errorf("%s run: shot CSV differs from the uncached run's", leg.out)
		}
	}
}

// TestCLIStallTimeout: a stall bound the optimizer's heartbeats keep
// resetting changes nothing — the shot CSV is the unbounded run's — and
// one longer than the tile's wall deadline is refused before any tile.
func TestCLIStallTimeout(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	run := []string{"-case", "4", "-grid", "128", "-iters", "4", "-tile-core", "64", "-tile-halo", "16", "-stream"}
	runCLI(t, work, cfaopc, append(run, "-out", "free")...)
	runCLI(t, work, cfaopc, append(run, "-stall-timeout", "30s", "-out", "bounded")...)
	if !bytes.Equal(readFile(t, work, "bounded", "case4_shots.csv"), readFile(t, work, "free", "case4_shots.csv")) {
		t.Error("-stall-timeout 30s changed the shot CSV")
	}
	cmd := exec.Command(cfaopc, append(run, "-stall-timeout", "2s", "-tile-timeout", "1s", "-out", "refused")...)
	cmd.Dir = work
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !bytes.Contains(out, []byte("flow: stall timeout 2s exceeds tile timeout 1s")) {
		t.Errorf("-stall-timeout 2s -tile-timeout 1s: exit %d, want 1 and the refusal:\n%s", code, out)
	}
}

// metricsLine returns what follows "L2 " on the metrics line a scoring
// tool printed (cfaopc without -stream, or evalmask).
func metricsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if _, metrics, ok := strings.Cut(line, ": L2 "); ok {
			return metrics
		}
	}
	t.Fatalf("no metrics line in:\n%s", out)
	return ""
}

// TestCLIParentTiledBytes holds the tiled flow to files the parent commit
// wrote while it still had a second, occupancy-adaptive plan: the uniform
// plan's shot CSVs reproduce byte for byte at any tile-worker count and on
// worker subprocesses, and a journal the adaptive plan wrote is refused at
// its header — its tile indices name windows this build never draws.
// The -mask-out PGMs are the ones its flow streamed band by band as tile
// rows finished; written after the run from the shot list they are the
// same bytes, also when resumed from a journal cut mid-record, as a kill
// leaves it.
func TestCLIParentTiledBytes(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	pools := [][]string{{"-tile-workers", "1"}, {"-tile-workers", "2"}, {"-proc-workers", "2"}}
	for _, r := range []struct {
		fixture, csv string
		args         []string
	}{
		{"tiled_case4_256_shots.csv", "case4_shots.csv",
			[]string{"-case", "4", "-grid", "256", "-tile-core", "64", "-tile-halo", "32", "-iters", "6"}},
		{"tiled_case1_512_circlerule_shots.csv", "case1_shots.csv",
			[]string{"-case", "1", "-grid", "512", "-tile-core", "128", "-tile-halo", "32", "-method", "circlerule"}},
	} {
		want := readFile(t, "testdata", "parent", r.fixture)
		for _, pool := range pools {
			out := runCLI(t, work, cfaopc, append(append(r.args, "-stream", "-out", "tiled"), pool...)...)
			if strings.Contains(out, "workers: ") {
				t.Fatalf("%v run degraded off its workers:\n%s", pool, out)
			}
			if !bytes.Equal(readFile(t, work, "tiled", r.csv), want) {
				t.Errorf("%s with %v: shot CSV differs from the parent's", r.fixture, pool)
			}
		}
	}

	for _, r := range []struct {
		fixture string
		args    []string
	}{
		{"mask_case4_256.pgm", []string{"-case", "4", "-grid", "256", "-tile-core", "64", "-tile-halo", "32", "-method", "circlerule", "-stream"}},
		{"mask_case1_256_uneven.pgm", []string{"-case", "1", "-grid", "256", "-tile-core", "100", "-tile-halo", "32", "-method", "circlerule", "-stream"}},
		{"mask_case7_onewindow.pgm", []string{"-case", "7", "-grid", "256", "-method", "circlerule"}},
	} {
		want := readFile(t, "testdata", "parent", r.fixture)
		args := append(r.args, "-mask-out", "m.pgm", "-out", "masked")
		for _, pool := range pools {
			runCLI(t, work, cfaopc, append(args, pool...)...)
			if !bytes.Equal(readFile(t, work, "m.pgm"), want) {
				t.Errorf("%s with %v: mask differs from the parent's", r.fixture, pool)
			}
		}
		ckpt := filepath.Join(work, r.fixture+".ckpt")
		args = append(args, "-checkpoint", ckpt)
		runCLI(t, work, cfaopc, args...)
		whole := readFile(t, ckpt)
		if err := os.WriteFile(ckpt, whole[:len(whole)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(work, "m.pgm")); err != nil {
			t.Fatal(err)
		}
		out := runCLI(t, work, cfaopc, args...)
		if n, tiles := strings.Count(out, "[resumed]"), strings.Count(out, "\n  tile "); tiles > 1 && (n == 0 || n == tiles) {
			t.Errorf("%s: the cut journal resumed %d of %d tiles; want some, not all:\n%s", r.fixture, n, tiles, out)
		}
		if !bytes.Equal(readFile(t, work, "m.pgm"), want) {
			t.Errorf("%s resumed from a cut journal: mask differs from the parent's", r.fixture)
		}
	}

	// The journal came from the parent's `cfaopc -case 4 -grid 256
	// -tile-core 64 -tile-halo 32 -iters 2 -checkpoint` with its adaptive
	// plan switched on.
	journal := filepath.Join(work, "adaptive.ckpt")
	if err := os.WriteFile(journal, readFile(t, "testdata", "parent", "adaptive.ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	resume := exec.Command(cfaopc, "-case", "4", "-grid", "256", "-tile-core", "64", "-tile-halo", "32",
		"-iters", "2", "-stream", "-checkpoint", "adaptive.ckpt", "-out", "resumed")
	resume.Dir = work
	if out, err := resume.CombinedOutput(); err == nil || !bytes.Contains(out, []byte("journal header does not match")) {
		t.Errorf("cfaopc over the parent's adaptive journal: %v\n%s", err, out)
	}
	spec := server.JobSpec{Case: 4, GridN: 256, TileCore: 64, TileHalo: 32, Iters: 2}
	spec.Normalize()
	l, err := spec.ResolveLayout("")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.FlowConfig(l)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = journal
	if _, err := flow.RunContext(context.Background(), l, cfg); !errors.Is(err, checkpoint.ErrHeaderMismatch) {
		t.Errorf("flow.RunContext over the parent's adaptive journal: %v, want ErrHeaderMismatch", err)
	}
}

// TestCLIPaperPitchTiledRun is the tiled flow at the paper's own pitch,
// 1 nm/px over the 2048 nm tile: sixteen-by-sixteen 192 nm windows run
// clean, and a window narrower than λ/NA = 143 nm is refused in one line
// before any tile starts.
func TestCLIPaperPitchTiledRun(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	pitch := []string{"-case", "10", "-grid", "2048", "-tile-halo", "32", "-method", "circlerule", "-stream"}
	out := runCLI(t, work, cfaopc, append(pitch, "-tile-core", "128")...)
	m := regexp.MustCompile(`circlerule: shots (\d+)`).FindStringSubmatch(out)
	if !strings.Contains(out, "flow: 256 windows (16 occupied)") || !strings.Contains(out, "MRC: clean") || m == nil || m[1] == "0" {
		t.Errorf("paper-pitch run: want 256 windows, 16 occupied, shots > 0 and a clean MRC:\n%s", out)
	}
	runCLI(t, work, cfaopc, append(pitch, "-tile-core", "80")...) // 144 nm: just above the floor

	refused := exec.Command(cfaopc, append(pitch, "-tile-core", "64")...)
	refused.Dir = work
	msg, err := refused.CombinedOutput()
	if err == nil || !bytes.Contains(msg, []byte("is 128 nm at 1 nm/px, below the λ/NA = 143.0 nm floor")) ||
		bytes.Count(bytes.TrimSpace(msg), []byte("\n")) != 0 {
		t.Errorf("128 nm window: %v, want a one-line refusal naming the window and the floor:\n%s", err, msg)
	}
}

// TestCLIUnfinishedRunKeepsMask: -mask-out is written once, after the
// last tile. A run interrupted by SIGINT exits 3 and leaves the complete
// mask an earlier run put at that path byte for byte — the parent
// truncated it at launch and left a 15-byte header promising 512 rows —
// and a path whose directory cannot take the file is still refused at
// launch, not after the last tile.
func TestCLIUnfinishedRunKeepsMask(t *testing.T) {
	cfaopc := buildTools(t)("cfaopc")
	work := t.TempDir()
	runCLI(t, work, cfaopc, "-case", "4", "-grid", "128", "-method", "circlerule", "-stream", "-mask-out", "keep.pgm")
	kept := readFile(t, work, "keep.pgm")

	var out bytes.Buffer
	victim := exec.Command(cfaopc, "-case", "4", "-grid", "512", "-tile-core", "64", "-tile-halo", "32",
		"-tile-workers", "1", "-stream", "-checkpoint", "run.ckpt", "-mask-out", "keep.pgm")
	victim.Dir, victim.Stdout, victim.Stderr = work, &out, &out
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	// The journal exists once the flow is running, after the signal
	// handler is installed.
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(filepath.Join(work, "run.ckpt")); err == nil {
			break
		}
	}
	victim.Process.Signal(os.Interrupt)
	var exit *exec.ExitError
	if err := victim.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 3 || !strings.Contains(out.String(), "interrupted: ") {
		t.Fatalf("SIGINT mid-run: %v, want exit 3 and an interrupted summary:\n%s", err, out.String())
	}
	if !bytes.Equal(readFile(t, work, "keep.pgm"), kept) {
		t.Error("the interrupted run touched the mask an earlier run left at -mask-out")
	}

	refused := exec.Command(cfaopc, "-case", "4", "-grid", "128", "-method", "circlerule", "-stream", "-mask-out", "nodir/m.pgm")
	refused.Dir = work
	if msg, err := refused.CombinedOutput(); err == nil || !bytes.Contains(msg, []byte("-mask-out is not writable")) || bytes.Contains(msg, []byte("tile")) {
		t.Errorf("unwritable -mask-out: %v, want a refusal before the first tile:\n%s", err, msg)
	}
}

// startDaemon launches cfaopcd on a free port over data and returns it
// with its output and base URL once <data>/addr names the bound address.
func startDaemon(t *testing.T, bin func(string) string, data string) (*exec.Cmd, *bytes.Buffer, string) {
	t.Helper()
	addr := filepath.Join(data, "addr")
	os.Remove(addr)
	var out bytes.Buffer
	d := exec.Command(bin("cfaopcd"), "-listen", "127.0.0.1:0", "-data", data)
	d.Stdout, d.Stderr = &out, &out
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.ProcessState == nil {
			d.Process.Kill()
			d.Wait()
		}
	})
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if b, err := os.ReadFile(addr); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			return d, &out, "http://" + strings.TrimSpace(string(b))
		}
	}
	d.Process.Kill()
	d.Wait()
	t.Fatalf("cfaopcd never wrote %s:\n%s", addr, out.String())
	return nil, nil, ""
}

// TestCLIDaemonStopIsPrompt: SIGTERM exits within a second while an SSE
// client follows a running job and a TCP connection has sent nothing.
// Stopping the manager ends the stream, and the silent connection is
// closed rather than waited out.
func TestCLIDaemonStopIsPrompt(t *testing.T) {
	bin := buildTools(t)
	d, out, base := startDaemon(t, bin, filepath.Join(t.TempDir(), "data"))
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(`{"case":1,"method":"circleopt","grid":256,"iters":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: %s, %v", resp.Status, err)
	}
	stream, err := http.Get(base + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	running, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"state":"running"`) {
				close(running)
			}
		}
	}()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatalf("the job never ran:\n%s", out.String())
	}
	silent, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(100 * time.Millisecond) // let the daemon accept it

	t0 := time.Now()
	d.Process.Signal(syscall.SIGTERM)
	err = d.Wait()
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("SIGTERM: %v\n%s", err, out.String())
	}
	if took > time.Second {
		t.Fatalf("SIGTERM took %v to exit, want under 1s", took)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the SSE stream outlived the daemon")
	}
	t.Logf("exit %v after SIGTERM", took)
}

// TestCLIDaemonStopResumes drives cfaopcd end to end: a tiled job is
// posted over HTTP, SIGTERM lands after its first tile, and the daemon
// exits 0 with its shutdown line. Restarted on the same -data, it
// resumes the job from its checkpoint — the event stream carries
// resumed tiles — to the shot list cfaopc -job writes for the same spec.
func TestCLIDaemonStopResumes(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	spec := `{"case":4,"grid":512,"method":"circleopt","tile_core":64,"tile_halo":32,"iters":24}`
	if err := os.WriteFile(filepath.Join(work, "job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, work, bin("cfaopc"), "-job", "job.json", "-out", "ref")
	data := filepath.Join(work, "data")

	start := func() (*exec.Cmd, *bytes.Buffer, string) { return startDaemon(t, bin, data) }
	// events reads the job's SSE stream from its first event until stop
	// accepts one or the stream ends.
	events := func(base, id string, stop func(server.JobEvent) bool) []server.JobEvent {
		t.Helper()
		resp, err := http.Get(base + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var evs []server.JobEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			payload, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(payload), &ev); err != nil {
				t.Fatal(err)
			}
			if evs = append(evs, ev); stop(ev) {
				break
			}
		}
		return evs
	}
	sigterm := func(d *exec.Cmd, out *bytes.Buffer) {
		t.Helper()
		d.Process.Signal(syscall.SIGTERM)
		if err := d.Wait(); err != nil || !strings.Contains(out.String(), "signal: shutting down") {
			t.Fatalf("SIGTERM: %v, want exit 0 and the shutdown line:\n%s", err, out.String())
		}
	}

	d, out, base := start()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: %s, %v", resp.Status, err)
	}
	events(base, st.ID, func(ev server.JobEvent) bool { return ev.Kind == "tile" })
	sigterm(d, out)

	d, out, base = start()
	evs := events(base, st.ID, func(server.JobEvent) bool { return false })
	resumed := 0
	for _, ev := range evs {
		if ev.Kind == "tile" && ev.Resumed {
			resumed++
		}
	}
	if last := evs[len(evs)-1]; last.Kind != "state" || last.State != string(server.JobDone) || resumed == 0 {
		t.Fatalf("restarted job ended with %+v after %d resumed tiles; want done with at least one", last, resumed)
	}
	resp, err = http.Get(base + "/jobs/" + st.ID + "/shots")
	if err != nil {
		t.Fatal(err)
	}
	shots, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET shots: %s, %v", resp.Status, err)
	}
	if !bytes.Equal(shots, readFile(t, work, "ref", "shots.csv")) {
		t.Error("the resumed daemon job's shots.csv differs from cfaopc -job's")
	}
	sigterm(d, out)
}
