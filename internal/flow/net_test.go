package flow

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/netpool"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// netListenEnv carries the listen address into a re-exec'd TCP host.
// The worker env var is set alongside it, so flow.Fault.Kill scripts
// (which key on procpool.InWorker) can SIGKILL a whole host mid-tile.
const netListenEnv = "CFAOPC_TEST_NET_HOST"

// runNetHost is the child-side TCP host: listen, announce the bound
// address on stdout for the parent to scrape, and serve handshaken
// coordinator sessions with the test engine registry until killed.
func runNetHost(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "net host: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	srv := &netpool.Server{Runner: testRunner}
	if err := srv.Serve(ln); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// testHost supervises one re-exec'd loopback host process. With respawn
// enabled it relaunches the process on the same address whenever it
// dies — the "operator restarts the crashed shard" role the coordinator's
// reconnect loop is built against.
type testHost struct {
	t       testing.TB
	addr    string
	respawn bool

	mu   sync.Mutex
	cmd  *exec.Cmd
	stop bool
}

func startHost(t testing.TB, respawn bool) *testHost {
	t.Helper()
	h := &testHost{t: t, respawn: respawn}
	addr, err := h.spawn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = addr
	if respawn {
		go h.respawnLoop()
	}
	t.Cleanup(h.Close)
	return h
}

// spawn launches the host process on addr and scrapes the bound address
// from its LISTEN line.
func (h *testHost) spawn(addr string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), procpool.WorkerEnv+"=1", netListenEnv+"="+addr)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if bound, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
			go io.Copy(io.Discard, out)
			h.mu.Lock()
			h.cmd = cmd
			h.mu.Unlock()
			return bound, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return "", fmt.Errorf("host on %s exited before announcing its address", addr)
}

// respawnLoop relaunches the host on its pinned address every time the
// process dies (e.g. a scripted Fault.Kill), until Close.
func (h *testHost) respawnLoop() {
	for {
		h.mu.Lock()
		cmd, stop := h.cmd, h.stop
		h.mu.Unlock()
		if stop || cmd == nil {
			return
		}
		cmd.Wait()
		for {
			h.mu.Lock()
			stop = h.stop
			h.mu.Unlock()
			if stop {
				return
			}
			if _, err := h.spawn(h.addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func (h *testHost) Close() {
	h.mu.Lock()
	h.stop = true
	cmd := h.cmd
	h.cmd = nil
	h.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
		if !h.respawn {
			cmd.Wait() // the respawn loop owns Wait otherwise
		}
	}
}

// deadAddr returns a loopback address nothing listens on: dials get
// connection-refused — the observable shape of a partitioned host.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// netConfig is the shared remote-mode config: cheap deterministic rule
// engine on both rungs, fast reconnect backoff so link-failure loops
// resolve in test time.
func netConfig(t testing.TB, hosts ...string) Config {
	t.Helper()
	cfg := testConfig()
	cfg.Optimize = ruleFallback()
	cfg.Fallback = ruleFallback()
	cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
	cfg.RemoteHosts = hosts
	cfg.linkBackoff = 10 * time.Millisecond
	return cfg
}

func TestNetValidation(t *testing.T) {
	l := bigLayout()
	cfg := netConfig(t, "127.0.0.1:1")
	cfg.ProcWorkers = 1
	cfg.WorkerCmd = testWorkerCmd(t)
	if _, err := Run(l, cfg); err == nil {
		t.Error("RemoteHosts together with ProcWorkers accepted")
	}
	cfg = netConfig(t, "127.0.0.1:1")
	cfg.Engines = quarantine.EngineMeta{}
	if _, err := Run(l, cfg); err == nil {
		t.Error("RemoteHosts without engine metadata accepted")
	}
}

// TestNetAcceptance is the issue's acceptance scenario: three loopback
// hosts, two of them SIGKILLed mid-tile by fault scripts (and restarted
// by their supervisor, so the coordinator's reconnect recovers), the
// third a partitioned address that circuit-breaks its slot into the
// local ladder. The run completes, the degradations are recorded, and
// shots and stats are byte-identical to the serial in-process
// reference. A second leg interrupts the run mid-tile
// (drain + checkpoint) and resumes it, again byte-identically.
func TestNetAcceptance(t *testing.T) {
	l := quadLayout()
	hostA := startHost(t, true)
	hostB := startHost(t, true)
	plan := FaultPlan{
		1: {{Kill: 1}}, // killed on the first dispatch, clean on reconnect
		2: {{Kill: 1}}, // same, on another tile
	}
	mk := func() Config {
		cfg := netConfig(t, hostA.addr, hostB.addr, deadAddr(t))
		// Generous limit and backoff: a killed host needs time to be
		// restarted before its slot's reconnect budget runs out.
		cfg.linkCrashLimit = 6
		cfg.linkBackoff = 25 * time.Millisecond
		cfg.Faults = plan
		return cfg
	}

	ref, err := Run(l, serialRef(mk()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.LinkCrashes != 0 || ref.LinkBroken != 0 {
		t.Fatalf("serial reference recorded remote activity: %+v", ref)
	}

	res, err := Run(l, mk())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", res.Completed)
	}
	// The partitioned slot alone burns linkCrashLimit dials before its
	// breaker opens; the scripted kills add more when their tiles land on
	// a live host. Exact counts depend on which slot drew which tile, so
	// the assertions are floors.
	if res.LinkBroken < 1 {
		t.Errorf("LinkBroken = %d, want >= 1 (partitioned slot)", res.LinkBroken)
	}
	if res.LinkCrashes < 6 {
		t.Errorf("LinkCrashes = %d, want >= linkCrashLimit", res.LinkCrashes)
	}
	sameResult(t, res, ref)

	// Interrupt + resume: every tile is slow enough that the drain fires
	// while the first wave is in flight (tile 4 never dispatches), the
	// journal holds what finished, and the resumed run replays to
	// byte-identical output.
	slow := Fault{Sleep: 200 * time.Millisecond}
	plan2 := FaultPlan{0: {slow}, 1: {slow}, 2: {slow}, 3: {slow}}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	mk2 := func() Config {
		cfg := mk()
		cfg.Faults = plan2
		cfg.CheckpointPath = ckpt
		return cfg
	}
	ref2cfg := serialRef(mk2())
	ref2cfg.CheckpointPath = ""
	ref2, err := Run(l, ref2cfg)
	if err != nil {
		t.Fatal(err)
	}

	drain := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(drain)
	}()
	cfg := mk2()
	cfg.Drain = drain
	dres, err := RunContext(context.Background(), l, cfg)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("drained run err = %v, want ErrDrained", err)
	}
	if dres == nil || dres.Completed == 0 || dres.Completed == dres.Tiles {
		t.Fatalf("drained run completed %d of %d tiles; the drain landed outside the run", dres.Completed, dres.Tiles)
	}

	res2, err := Run(l, mk2())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != dres.Completed {
		t.Fatalf("resumed %d tiles, want the %d the drained run checkpointed", res2.Resumed, dres.Completed)
	}
	sameResult(t, res2, ref2)

	// A link cut in the middle of a CircleOpt tile: beats are frames, so
	// the cut lands after the handshake answer and five heartbeats of
	// tile 0 crossed and before its reply. The redispatch recomputes the
	// tile from scratch — every heartbeat again — to the serial bytes.
	if testing.Short() {
		return // CircleOpt tiles are slow under the race detector
	}
	p, err := netpool.NewProxy(hostA.addr, netpool.ConnScript{Fault: netpool.FaultCut, AfterFrames: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	mk3 := func(hosts ...string) Config {
		cfg := netConfig(t, hosts...)
		cfg.Optimize = circleOptimizer(8)
		cfg.Fallback = nil
		cfg.Engines = quarantine.EngineMeta{Primary: "circle", Iters: 8}
		return cfg
	}
	ref3, err := Run(bigLayout(), serialRef(mk3()))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Run(bigLayout(), mk3(p.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if st := res3.TileStats[0]; res3.LinkCrashes != 1 || st.Host != p.Addr() || st.ProcCrashes != 1 {
		t.Fatalf("LinkCrashes = %d, tile 0 stat %+v; want exactly the scripted cut", res3.LinkCrashes, st)
	}
	sameResult(t, res3, ref3)
}

// TestNetMatrix is the CI net-matrix entry point: the fault kind and
// host count come from the environment (one cell per CI job), or every
// cell runs when the variables are unset. Each cell fronts every live
// host with a chaos proxy whose first connection suffers the scripted
// fault and whose later connections heal — except partition, where the
// hosts are plain unreachable addresses (which also covers the
// zero-reachable-hosts guarantee).
func TestNetMatrix(t *testing.T) {
	kinds := []string{"drop", "garble", "stall", "partition"}
	if v := os.Getenv("FLOW_NET_FAULT"); v != "" && v != "all" {
		kinds = []string{v}
	}
	counts := []int{1, 3}
	if v := os.Getenv("FLOW_NET_HOSTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FLOW_NET_HOSTS = %q", v)
		}
		counts = []int{n}
	}
	l := quadLayout()
	// Network faults never touch the in-process reference, so one serial
	// run anchors every cell.
	ref, err := Run(l, serialRef(netConfig(t)))
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range kinds {
		for _, n := range counts {
			t.Run(fmt.Sprintf("%s/hosts=%d", kind, n), func(t *testing.T) {
				var hosts []string
				for i := 0; i < n; i++ {
					if kind == "partition" {
						hosts = append(hosts, deadAddr(t))
						continue
					}
					h := startHost(t, false)
					var script netpool.ConnScript
					switch kind {
					case "drop":
						script = netpool.ConnScript{Fault: netpool.FaultCut, AfterFrames: 2}
					case "garble":
						script = netpool.ConnScript{Fault: netpool.FaultGarble, AfterFrames: 2}
					case "stall":
						script = netpool.ConnScript{Fault: netpool.FaultStall, AfterFrames: 2}
					default:
						t.Fatalf("unknown fault kind %q", kind)
					}
					p, err := netpool.NewProxy(h.addr, script)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(p.Close)
					hosts = append(hosts, p.Addr())
				}
				cfg := netConfig(t, hosts...)
				cfg.linkCrashLimit = 3
				if kind == "stall" {
					cfg.linkSilence = 250 * time.Millisecond
				}
				res, err := Run(l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed != res.Tiles {
					t.Fatalf("completed %d of %d tiles", res.Completed, res.Tiles)
				}
				if kind == "partition" {
					if res.LinkBroken < 1 {
						t.Errorf("LinkBroken = %d, want >= 1", res.LinkBroken)
					}
					for _, st := range res.TileStats {
						if st.Host != "" {
							t.Errorf("tile %d claims host %q with no host reachable", st.Index, st.Host)
						}
					}
				}
				if res.LinkCrashes < 1 {
					t.Errorf("LinkCrashes = %d: the %s fault never bit", res.LinkCrashes, kind)
				}
				sameResult(t, res, ref)
			})
		}
	}
}

// TestNetZeroHostsDegradesLocal pins the bottom of the degradation
// ladder: with every configured host unreachable, every slot breaks to
// the shared in-process simulator and the run still completes,
// byte-identical to the serial reference.
func TestNetZeroHostsDegradesLocal(t *testing.T) {
	l := bigLayout()
	cfg := netConfig(t, deadAddr(t), deadAddr(t))
	cfg.linkCrashLimit = 2
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Tiles {
		t.Fatalf("completed %d of %d tiles", res.Completed, res.Tiles)
	}
	for _, st := range res.TileStats {
		if st.Host != "" || st.Proc {
			t.Errorf("tile %d claims remote/proc provenance: %+v", st.Index, st)
		}
	}
	ref, err := Run(l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestOldWorkerRefusedByVersion: a worker built before protocol v3
// announces itself unasked (Hello-first, v2) and ignores the
// coordinator's Hello. The handshake must refuse it by version — not
// wedge on two peers each waiting for the other — so the slot breaks
// and the run completes on the local ladder.
func TestOldWorkerRefusedByVersion(t *testing.T) {
	l := bigLayout()
	cfg := netConfig(t, "old-worker")
	cfg.linkCrashLimit = 2
	cfg.RemoteDial = func(context.Context, string) (net.Conn, error) {
		coord, worker := net.Pipe()
		go io.Copy(io.Discard, worker) // non-task frames are skipped
		go func() {
			procpool.WriteMessage(worker, &procpool.Message{Hello: &procpool.Hello{Version: 2, PID: 1}})
		}()
		return coord, nil
	}
	start := time.Now()
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCrashes != 2 || res.LinkBroken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.LinkCrashes, res.LinkBroken)
	}
	if since := time.Since(start); since > 8*time.Second {
		t.Fatalf("run took %s: the old worker was waited out, not refused", since)
	}
	for _, st := range res.TileStats {
		if st.Host != "" {
			t.Errorf("tile %d was computed by the old worker", st.Index)
		}
	}
	ref, err := Run(l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}
