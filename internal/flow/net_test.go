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

	"cfaopc/internal/iox"
	"cfaopc/internal/netpool"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
	"cfaopc/internal/testkit/chaosnet"
)

// netListenEnv carries the listen address into a re-exec'd TCP host.
// The worker env var is set alongside it, so Fault.Kill scripts (which
// key on procpool.InWorker) can SIGKILL a whole host mid-tile.
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
	env     []string // added to every spawn's environment

	mu   sync.Mutex
	cmd  *exec.Cmd
	stop bool
}

func startHost(t testing.TB, respawn bool, env ...string) *testHost {
	t.Helper()
	h := &testHost{t: t, respawn: respawn, env: env}
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
	cmd.Env = append(cmd.Env, h.env...)
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
	if _, err := RunContext(context.Background(), l, cfg); err == nil {
		t.Error("RemoteHosts together with ProcWorkers accepted")
	}
	cfg = netConfig(t, "127.0.0.1:1")
	cfg.Engines = quarantine.EngineMeta{}
	if _, err := RunContext(context.Background(), l, cfg); err == nil {
		t.Error("RemoteHosts without engine metadata accepted")
	}
}

// TestNetAcceptance is the issue's acceptance scenario: three loopback
// hosts, two of them SIGKILLed mid-tile by fault scripts (and restarted
// by their supervisor, so the coordinator's reconnect recovers), the
// third a partitioned address that circuit-breaks its slot into the
// local ladder. The run completes, the degradations are recorded, and
// shots and stats are byte-identical to the serial in-process
// reference. A second leg cancels the run mid-tile (checkpointed) and
// resumes it, again byte-identically.
func TestNetAcceptance(t *testing.T) {
	l := quadLayout()
	plan := FaultPlan{
		1: {{Kill: 1}}, // killed on the first dispatch, clean on reconnect
		2: {{Kill: 1}}, // same, on another tile
	}
	// The hosts read the plan file per task, so the second leg below
	// rewrites it instead of respawning them.
	env, planFile := workerFaultPlan(t, plan)
	hostA := startHost(t, true, env)
	hostB := startHost(t, true, env)
	mk := func(plan FaultPlan) Config {
		cfg := netConfig(t, hostA.addr, hostB.addr, deadAddr(t))
		// Generous limit and backoff: a killed host needs time to be
		// restarted before its slot's reconnect budget runs out.
		cfg.linkCrashLimit = 6
		cfg.linkBackoff = 25 * time.Millisecond
		return withFaults(cfg, plan)
	}

	ref, err := RunContext(context.Background(), l, serialRef(mk(plan)))
	if err != nil {
		t.Fatal(err)
	}
	if ref.LinkCrashes != 0 || ref.LinkBroken != 0 {
		t.Fatalf("serial reference recorded remote activity: %+v", ref)
	}

	res, err := RunContext(context.Background(), l, mk(plan))
	if err != nil {
		t.Fatal(err)
	}
	everyTileDone(t, res)
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

	// Interrupt + resume: tile 3 is dispatched only once a lane has
	// finished (and journaled) an earlier tile, and it heartbeats until
	// the run is canceled on its first beat. The resumed run replays
	// what finished to byte-identical output.
	plan2 := FaultPlan{3: {{Sleep: 10 * time.Second, BeatEvery: 10 * time.Millisecond}}}
	writeFaultPlan(t, planFile, plan2)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mk(plan2)
	cfg.CheckpointPath = ckpt
	cfg.Events = func(ev Event) {
		if ev.Kind == EventBeat && ev.Tile == 3 {
			cancel()
		}
	}
	if cres, err := RunContext(ctx, l, cfg); cres != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: result %v, err %v; want no result and context.Canceled", cres, err)
	}

	writeFaultPlan(t, planFile, nil)
	cfg = mk(nil)
	cfg.CheckpointPath = ckpt
	res2, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed <= 0 || res2.Resumed >= res2.Tiles {
		t.Fatalf("resumed %d of %d tiles; the cancel landed outside the run", res2.Resumed, res2.Tiles)
	}
	sameResult(t, res2, ref)

	// A link cut in the middle of a CircleOpt tile: beats are frames, so
	// the cut lands after the handshake answer and five heartbeats of
	// tile 0 crossed and before its reply. The redispatch recomputes the
	// tile from scratch — every heartbeat again — to the serial bytes.
	if testing.Short() {
		return // CircleOpt tiles are slow under the race detector
	}
	writeFaultPlan(t, planFile, nil)
	p, err := chaosnet.NewProxy(hostA.addr, chaosnet.ConnScript{Fault: chaosnet.FaultCut, AfterFrames: 6})
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
	ref3, err := RunContext(context.Background(), bigLayout(), serialRef(mk3()))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := RunContext(context.Background(), bigLayout(), mk3(p.Addr()))
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
	ref, err := RunContext(context.Background(), l, serialRef(netConfig(t)))
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
					var script chaosnet.ConnScript
					switch kind {
					case "drop":
						script = chaosnet.ConnScript{Fault: chaosnet.FaultCut, AfterFrames: 2}
					case "garble":
						script = chaosnet.ConnScript{Fault: chaosnet.FaultGarble, AfterFrames: 2}
					case "stall":
						script = chaosnet.ConnScript{Fault: chaosnet.FaultStall, AfterFrames: 2}
					default:
						t.Fatalf("unknown fault kind %q", kind)
					}
					p, err := chaosnet.NewProxy(h.addr, script)
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
				res, err := RunContext(context.Background(), l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				everyTileDone(t, res)
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

// A link that dies of a bad frame says so: the tile that was in flight
// keeps the reason — a CRC mismatch for a flipped byte, a torn frame for
// half a frame and a hang-up — beside its crash count.
func TestLinkErrNamesTheBadFrame(t *testing.T) {
	for _, c := range []struct {
		fault chaosnet.FaultKind
		want  string
	}{
		{chaosnet.FaultGarble, iox.ErrFrameCRC.Error()},
		{chaosnet.FaultTrunc, iox.ErrTornFrame.Error()},
	} {
		h := startHost(t, false)
		p, err := chaosnet.NewProxy(h.addr, chaosnet.ConnScript{Fault: c.fault, AfterFrames: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		res, err := RunContext(context.Background(), quadLayout(), netConfig(t, p.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		everyTileDone(t, res)
		crashed := 0
		for _, st := range res.TileStats {
			if st.ProcCrashes == 0 {
				if st.LinkErr != "" {
					t.Errorf("tile %d: no failed dispatch, yet LinkErr %q", st.Index, st.LinkErr)
				}
				continue
			}
			crashed++
			if !strings.Contains(st.LinkErr, c.want) {
				t.Errorf("tile %d: %d failed dispatches, LinkErr %q; want it to name %q", st.Index, st.ProcCrashes, st.LinkErr, c.want)
			}
		}
		if crashed == 0 {
			t.Errorf("%q: no tile recorded a failed dispatch; the fault never bit", c.want)
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
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	everyTileDone(t, res)
	for _, st := range res.TileStats {
		if st.Host != "" || st.Proc {
			t.Errorf("tile %d claims remote/proc provenance: %+v", st.Index, st)
		}
	}
	ref, err := RunContext(context.Background(), l, serialRef(cfg))
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
	cfg.remoteDial = func(context.Context, string) (net.Conn, error) {
		coord, worker := net.Pipe()
		go io.Copy(io.Discard, worker) // non-task frames are skipped
		go func() {
			procpool.WriteMessage(worker, &procpool.Message{Hello: &procpool.Hello{Version: 2, PID: 1}})
		}()
		return coord, nil
	}
	start := time.Now()
	res, err := RunContext(context.Background(), l, cfg)
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
	ref, err := RunContext(context.Background(), l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}
