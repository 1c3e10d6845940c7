package procworker

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestMain makes the test binary its own tile worker, exactly as
// cmd/cfaopc does.
func TestMain(m *testing.M) {
	ServeIfWorker()
	os.Exit(m.Run())
}

// TestWorkerParity runs one tiled job in-process, on spawned workers
// (ServeIfWorker on stdin/stdout) and on a listening worker (Listen), all
// backed by the engine registry: every occupied tile must come from a
// worker, no dispatch may fail, and the stitched shots must be equal.
func TestWorkerParity(t *testing.T) {
	l := layout.GenerateSuite()[3]
	opts := engine.Options{Iters: 8, Gamma: 3, SampleNM: 32}
	optimize, err := engine.For("circlerule", opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() flow.Config {
		return flow.Config{
			GridN: 128, CorePx: 64, HaloPx: 16,
			Optics: optics.Default(), KOpt: 5, TileWorkers: 1,
			Optimize: optimize,
			Engines:  engine.Meta("circlerule", "", opts),
		}
	}
	ref, err := flow.RunContext(context.Background(), l, mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Shots) == 0 {
		t.Fatal("reference run produced no shots")
	}

	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Listen(ln, "", time.Second) }()
	defer func() {
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("Listen returned %v on listener close", err)
		}
	}()

	proc := mk()
	proc.ProcWorkers = 2
	proc.WorkerCmd = func() *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Stderr = os.Stderr
		return cmd
	}
	remote := mk()
	remote.RemoteHosts = []string{ln.Addr().String()}
	for name, cfg := range map[string]flow.Config{"proc": proc, "remote": remote} {
		res, err := flow.RunContext(context.Background(), l, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.LinkCrashes != 0 || res.LinkBroken != 0 {
			t.Errorf("%s: %d failed dispatches, %d breaker openings on a healthy worker", name, res.LinkCrashes, res.LinkBroken)
		}
		for _, st := range res.TileStats {
			if st.Occupied && !st.Proc && st.Host == "" {
				t.Errorf("%s: tile %d was computed in-process", name, st.Index)
			}
		}
		if !reflect.DeepEqual(res.Shots, ref.Shots) {
			t.Errorf("%s: stitched shots differ from the in-process run", name)
		}
	}
}

// TestRunnerSoftErrors: a task the worker cannot set up — unreadable
// bundle, unknown engine, impossible optics — is reported in the reply,
// never a panic or a dead session.
func TestRunnerSoftErrors(t *testing.T) {
	valid := quarantine.Bundle{
		FormatVersion: quarantine.FormatVersion,
		Engines:       quarantine.EngineMeta{Primary: "circlerule"},
		Tile:          quarantine.Tile{Index: 5, WindowPx: 2},
		TargetW:       2, TargetH: 2, Target: make([]float64, 4),
	}
	// The raster check is flow.ServeTask's, which needs a simulator to
	// be reached: this bundle's optics and window are sound, its target
	// is missing.
	noTarget, noEngine := valid, valid
	noTarget.Optics = optics.Default()
	noTarget.Optics.TileNM = 512
	noTarget.Tile.WindowPx, noTarget.TargetW, noTarget.TargetH = 64, 64, 64
	noTarget.Target = nil
	noEngine.Engines.Primary = "bogus"
	for want, b := range map[string]quarantine.Bundle{
		"target raster": noTarget,
		"engine":        noEngine,
		"litho":         valid, // zero optics cannot build a simulator
	} {
		reply := Runner()(context.Background(), &procpool.Task{Bundle: b}, nil)
		if reply.Index != 5 || !strings.Contains(reply.Err, want) {
			t.Errorf("reply = %+v, want a %q error for tile 5", reply, want)
		}
	}
}

// TestParentWorkersTaskServesTheSameReply: the parent commit's Task
// carried Workers, the goroutines-per-kernel count removed after
// measurement. A frame it wrote with Workers: 2 (a CircleOpt tile of case
// 4, beside the other parent-written frames under internal/flow) decodes
// here — gob drops the field — and this worker serves the Reply the
// parent's worker served: every shot, iteration count and loss, to the
// bit. The reply frame was re-recorded at numerics v4, whose exp moved
// the last loss by 2 ulp and nothing else. (The frames themselves differ:
// each opens with gob's description of the whole Message, Task's field
// list included.)
func TestParentWorkersTaskServesTheSameReply(t *testing.T) {
	read := func(name string) *procpool.Message {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "flow", "testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "task_workers2.frame" && !bytes.Contains(raw, []byte("Workers")) {
			t.Fatal("the fixture's Task descriptor has no Workers field")
		}
		m, err := procpool.ReadMessage(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return m
	}
	task, want := read("task_workers2.frame").Task, read("reply_workers2.frame").Reply
	if task == nil || want == nil || len(want.Shots) == 0 {
		t.Fatalf("fixtures: task %+v, reply %+v", task, want)
	}
	if got := Runner()(context.Background(), task, nil); !reflect.DeepEqual(got, *want) {
		t.Errorf("served %d shots, outcomes %+v; the parent's worker served %d shots, outcomes %+v",
			len(got.Shots), got.Outcomes, len(want.Shots), want.Outcomes)
	}
}
