package netpool

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestMain doubles as the spawned worker of the handshake table's
// subprocess connector: re-executed through procpool.Spawn, it runs the
// behaviour named by its first argument on its own stdin/stdout.
func TestMain(m *testing.M) {
	if procpool.InWorker() {
		behaviours[os.Args[1]](procpool.Stdio())
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// echoRunner is the fake task executor behind every test server: one
// beat, then a reply echoing the tile index.
func echoRunner() procpool.Runner {
	return func(_ context.Context, t *procpool.Task, sink procpool.Sink) procpool.Reply {
		index := t.Bundle.Tile.Index
		sink.Beat(index, 1, 0.25)
		return procpool.Reply{Index: index, Path: "primary"}
	}
}

func task(index int) *procpool.Task {
	return &procpool.Task{Bundle: quarantine.Bundle{Tile: quarantine.Tile{Index: index}}}
}

// startServer runs srv on a fresh loopback listener; cleanup closes the
// listener and verifies Serve returned cleanly.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v on listener close", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("Serve did not return after listener close")
		}
	})
	return ln.Addr().String()
}

// Message kinds awaitConn can wait for.
var (
	isPing  = func(m *procpool.Message) bool { return m.Ping != nil }
	isBeat  = func(m *procpool.Message) bool { return m.Beat != nil }
	isReply = func(m *procpool.Message) bool { return m.Reply != nil }
)

// awaitConn returns the session's next message of the wanted kind.
func awaitConn(t *testing.T, c *Conn, want func(*procpool.Message) bool) *procpool.Message {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case m, ok := <-c.Messages():
			if !ok {
				t.Fatalf("link died (err %v) while waiting for a message", c.Err())
			}
			if want(m) {
				return m
			}
		case <-deadline:
			t.Fatal("timed out waiting for a message")
		}
	}
}

// awaitExit drains the session to the end of its stream and returns the
// terminal error.
func awaitExit(t *testing.T, c *Conn) error {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-c.Messages():
			if !ok {
				return c.Err()
			}
		case <-deadline:
			t.Fatal("timed out waiting for the link to end")
		}
	}
}

// runnerServer is a worker side whose every task runs through run.
func runnerServer(pin string, run procpool.Runner) func(net.Conn) {
	return func(nc net.Conn) {
		srv := &Server{Pin: pin, Runner: func() procpool.Runner { return run }}
		srv.ServeConn(nc)
	}
}

// behaviours are the worker sides the handshake table dials. Each runs
// on whatever connection its connector produced — a spawned child's
// stdin/stdout or an accepted socket — so one table covers every way
// of reaching a worker.
var behaviours = map[string]func(net.Conn){
	"serve":  runnerServer("", echoRunner()),
	"pinned": runnerServer("cfg-A", echoRunner()),
	// slow outlives any handshake deadline the table sets, then replies.
	"slow": runnerServer("", func(_ context.Context, t *procpool.Task, _ procpool.Sink) procpool.Reply {
		time.Sleep(600 * time.Millisecond)
		return procpool.Reply{Index: t.Bundle.Tile.Index, Path: "primary"}
	}),
	// hang never replies: it runs until its session is abandoned.
	"hang": runnerServer("", func(ctx context.Context, _ *procpool.Task, _ procpool.Sink) procpool.Reply {
		<-ctx.Done()
		return procpool.Reply{}
	}),
	// silent reads and never answers: a wedged or misconfigured binary.
	"silent": func(nc net.Conn) { io.Copy(io.Discard, nc) },
	// hello-first-v2 is a worker built before protocol v3: it announces
	// itself unasked, then skips the coordinator's Hello as a non-task
	// frame.
	"hello-first-v2": func(nc net.Conn) {
		procpool.WriteMessage(nc, &procpool.Message{Hello: &procpool.Hello{Version: 2, PID: os.Getpid()}})
		io.Copy(io.Discard, nc)
	},
	// garbage handshakes properly, then stops speaking the protocol (in
	// a well-formed frame, so the proxy's frame counter forwards it).
	"garbage": func(nc net.Conn) {
		if (&Server{}).accept(nc) == nil {
			frame, _ := iox.AppendFrame(nil, []byte("framed, but not a message"), procpool.MaxFrameBytes)
			nc.Write(frame)
			io.Copy(io.Discard, nc)
		}
	},
	// drop loses the link while its first task is in flight.
	"drop": func(nc net.Conn) {
		runnerServer("", func(ctx context.Context, _ *procpool.Task, _ procpool.Sink) procpool.Reply {
			nc.Close()
			<-ctx.Done()
			return procpool.Reply{}
		})(nc)
	},
}

// dialFunc is a Dialer.Dial reaching a fresh worker.
type dialFunc func(ctx context.Context, addr string) (net.Conn, error)

// listenBehaviour serves behaviour b on a loopback listener, one
// session per accepted connection, and returns its address.
func listenBehaviour(t *testing.T, b string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sessions sync.WaitGroup
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			sessions.Add(1)
			go func() {
				defer sessions.Done()
				defer nc.Close()
				behaviours[b](nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		sessions.Wait()
	})
	return ln.Addr().String()
}

func dialTCP(addr string) dialFunc {
	return func(ctx context.Context, _ string) (net.Conn, error) {
		var nd net.Dialer
		return nd.DialContext(ctx, "tcp", addr)
	}
}

// connectors are the ways a coordinator reaches a worker: each returns
// the dial that lands on a fresh worker running behaviour b.
var connectors = []struct {
	name string
	dial func(t *testing.T, b string) dialFunc
}{
	{"subprocess", func(t *testing.T, b string) dialFunc {
		self, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		return func(context.Context, string) (net.Conn, error) {
			cmd := exec.Command(self, b)
			cmd.Stderr = os.Stderr
			return procpool.Spawn(cmd)
		}
	}},
	{"tcp", func(t *testing.T, b string) dialFunc {
		return dialTCP(listenBehaviour(t, b))
	}},
	{"proxy", func(t *testing.T, b string) dialFunc {
		p, err := NewProxy(listenBehaviour(t, b))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return dialTCP(p.Addr())
	}},
}

// sendRaw writes one frame on a bare connection, for the cases where
// the coordinator itself is the misbehaving party.
func sendRaw(t *testing.T, nc net.Conn, m *procpool.Message) {
	t.Helper()
	if err := procpool.WriteMessage(nc, m); err != nil {
		t.Fatal(err)
	}
}

// readReject reads the worker's answer and requires a Reject hello.
func readReject(t *testing.T, nc net.Conn) string {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := procpool.ReadMessage(nc)
	if err != nil || m.Hello == nil || m.Hello.Reject == "" {
		t.Fatalf("answer = %+v err %v, want a reject", m, err)
	}
	return m.Hello.Reject
}

// TestHandshakeTable is the one contract of the worker session — who
// is refused at the handshake, what a dead or babbling peer looks like,
// how Kill and Close end a session — run over every connector: a
// spawned subprocess's stdin/stdout, a TCP socket, and a TCP socket
// behind the chaos proxy.
func TestHandshakeTable(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, dial func(b string) dialFunc)
	}{
		{"round trip and graceful close", func(t *testing.T, dial func(string) dialFunc) {
			c, err := Dialer{Fingerprint: "cfg-A", Dial: dial("serve")}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Kill()
			if c.Hello.Version != procpool.ProtocolVersion || c.Hello.PID == 0 {
				t.Fatalf("worker hello = %+v", c.Hello)
			}
			if c.Hello.Fingerprint != "cfg-A" {
				t.Fatalf("hello fingerprint = %q, want echo of cfg-A", c.Hello.Fingerprint)
			}
			if err := c.Send(task(11)); err != nil {
				t.Fatal(err)
			}
			if beat := awaitConn(t, c, isBeat); beat.Beat.Index != 11 {
				t.Fatalf("beat index = %d", beat.Beat.Index)
			}
			if reply := awaitConn(t, c, isReply); reply.Reply.Index != 11 || reply.Reply.Path != "primary" {
				t.Fatalf("reply = %+v", reply.Reply)
			}
			// A second task on the same session: the loop must survive.
			if err := c.Send(task(12)); err != nil {
				t.Fatal(err)
			}
			if reply := awaitConn(t, c, isReply); reply.Reply.Index != 12 {
				t.Fatalf("second reply index = %d", reply.Reply.Index)
			}
			// Graceful close: the worker loop gets its EOF and the
			// session winds down with a clean exit.
			c.Close()
			if err := awaitExit(t, c); err != io.EOF {
				t.Fatalf("after close: stream ended with %v, want a clean io.EOF", err)
			}
		}},
		{"coordinator version skew refused", func(t *testing.T, dial func(string) dialFunc) {
			nc, err := dial("serve")(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			sendRaw(t, nc, &procpool.Message{Hello: &procpool.Hello{Version: procpool.ProtocolVersion + 1, PID: 1}})
			if reason := readReject(t, nc); !strings.Contains(reason, "skew") {
				t.Fatalf("reject = %q, want a version-skew reason", reason)
			}
			// The reject is terminal: the worker closes the connection.
			if _, err := procpool.ReadMessage(nc); err == nil {
				t.Fatal("worker kept the connection open after a reject")
			}
		}},
		{"hello-first v2 worker refused by version", func(t *testing.T, dial func(string) dialFunc) {
			_, err := Dialer{Dial: dial("hello-first-v2")}.Connect(context.Background(), "")
			if err == nil || !strings.Contains(err.Error(), "protocol v2") {
				t.Fatalf("connect err = %v, want a protocol-version refusal", err)
			}
		}},
		{"fingerprint pin mismatch refused", func(t *testing.T, dial func(string) dialFunc) {
			d := dial("pinned")
			c, err := Dialer{Fingerprint: "cfg-A", Dial: d}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			c.Kill()
			// A coordinator with a different run config is refused at
			// the handshake — config skew never reaches a task.
			if _, err := (Dialer{Fingerprint: "cfg-B", Dial: d}).Connect(context.Background(), ""); err == nil {
				t.Fatal("fingerprint mismatch accepted")
			} else if !strings.Contains(err.Error(), "refused") {
				t.Fatalf("mismatch error = %v, want a worker refusal", err)
			}
			// No fingerprint at all is also a mismatch against a pin.
			if _, err := (Dialer{Dial: d}).Connect(context.Background(), ""); err == nil {
				t.Fatal("empty fingerprint accepted by pinned worker")
			}
		}},
		{"non-hello first frame refused", func(t *testing.T, dial func(string) dialFunc) {
			nc, err := dial("serve")(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			sendRaw(t, nc, &procpool.Message{Ping: &procpool.Ping{}})
			readReject(t, nc)
		}},
		{"silent peer cut at the handshake deadline", func(t *testing.T, dial func(string) dialFunc) {
			start := time.Now()
			_, err := Dialer{Handshake: 200 * time.Millisecond, Dial: dial("silent")}.Connect(context.Background(), "")
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connect err = %v, want the handshake deadline", err)
			}
			// Generous bound: the point is "milliseconds, not the
			// silence watchdog's seconds".
			if since := time.Since(start); since > 5*time.Second {
				t.Fatalf("Connect took %s against a silent peer", since)
			}
		}},
		{"handshake deadline spares a slow task", func(t *testing.T, dial func(string) dialFunc) {
			c, err := Dialer{Handshake: 200 * time.Millisecond, Dial: dial("slow")}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Kill()
			if err := c.Send(task(7)); err != nil {
				t.Fatal(err)
			}
			// The task outlives the handshake window several times
			// over; the deadline was cleared once the Hellos crossed.
			if reply := awaitConn(t, c, isReply); reply.Reply.Index != 7 {
				t.Fatalf("reply index = %d", reply.Reply.Index)
			}
		}},
		{"garbage stream is a terminal exit", func(t *testing.T, dial func(string) dialFunc) {
			c, err := Dialer{Dial: dial("garbage")}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Kill()
			if err := awaitExit(t, c); err == nil || err == io.EOF {
				t.Fatalf("garbage stream exit err = %v, want a decode error", err)
			}
		}},
		{"worker drops the link mid-task", func(t *testing.T, dial func(string) dialFunc) {
			c, err := Dialer{Dial: dial("drop")}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Kill()
			if err := c.Send(task(3)); err != nil {
				t.Fatal(err)
			}
			if awaitExit(t, c) == nil {
				t.Fatal("stream ended with nil error")
			}
		}},
		{"kill mid-task", func(t *testing.T, dial func(string) dialFunc) {
			c, err := Dialer{Dial: dial("hang")}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Send(task(1)); err != nil {
				t.Fatal(err)
			}
			awaitConn(t, c, isPing) // the task is in flight
			c.Kill()
			// After Kill, sends fail promptly (the link is gone) — poll,
			// since the teardown races the write.
			deadline := time.Now().Add(15 * time.Second)
			for c.Send(task(2)) == nil {
				if time.Now().After(deadline) {
					t.Fatal("Send kept succeeding after Kill")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Idempotent, and Close after Kill must not hang.
			c.Kill()
			c.Close()
		}},
	}
	for _, conn := range connectors {
		for _, tc := range cases {
			t.Run(conn.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, func(b string) dialFunc { return conn.dial(t, b) })
			})
		}
	}
}

// TestSpawnedWorkerIsReaped: Kill on a spawned session is SIGKILL plus
// reap — the process is gone when it returns — and Close on a worker
// that ignores its stdin EOF falls back to the same after the grace
// period instead of hanging.
func TestSpawnedWorkerIsReaped(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for name, end := range map[string]func(*Conn){"kill": (*Conn).Kill, "close": (*Conn).Close} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(self, "hang")
			c, err := Dialer{Dial: func(context.Context, string) (net.Conn, error) {
				return procpool.Spawn(cmd)
			}}.Connect(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			if c.Hello.PID != cmd.Process.Pid {
				t.Fatalf("hello PID = %d, spawned %d", c.Hello.PID, cmd.Process.Pid)
			}
			if err := c.Send(task(1)); err != nil {
				t.Fatal(err)
			}
			awaitConn(t, c, isPing)
			end(c)
			if cmd.ProcessState == nil {
				t.Fatal("worker not reaped")
			}
		})
	}
}

func TestServerHandshakeDeadline(t *testing.T) {
	// A peer that connects and says nothing (port scanner, wedged
	// coordinator) is cut loose within the handshake deadline instead
	// of pinning a session goroutine.
	addr := startServer(t, &Server{Handshake: 200 * time.Millisecond, Runner: echoRunner})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection was answered")
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("silent connection held for %s", since)
	}
}

func TestConnectRefusedPort(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := (Dialer{Handshake: 2 * time.Second}).Connect(context.Background(), addr); err == nil {
		t.Fatal("Connect to a dead port succeeded")
	}
}

func TestConnSurfacesServerDeath(t *testing.T) {
	// The server host dies mid-session (listener and session torn
	// down): the coordinator sees the stream end with an error, not a hang.
	srv := &Server{Runner: echoRunner}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dialer{}.Connect(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Kill()
	ln.Close()
	// Closing the listener alone leaves the session; kill it by
	// sending a frame the worker loop treats as fatal garbage.
	nc := c.nc
	nc.Close() // sever from the client side of the TCP pair
	if awaitExit(t, c) == nil {
		t.Fatal("severed link ended with nil error")
	}
}

func TestProxyFaults(t *testing.T) {
	addr := startServer(t, &Server{Runner: echoRunner})
	// Each case dials the worker through a freshly scripted proxy and
	// asserts the coordinator-visible failure shape.
	t.Run("refuse", func(t *testing.T) {
		p, err := NewProxy(addr, ConnScript{Fault: FaultRefuse})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := (Dialer{Handshake: 2 * time.Second}).Connect(context.Background(), p.Addr()); err == nil {
			t.Fatal("refused connection handshook")
		}
		// The script list is per-connection: the next attempt heals.
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatalf("second connection through proxy: %v", err)
		}
		defer c.Kill()
		if got := p.Accepted(); got != 2 {
			t.Fatalf("proxy accepted %d connections, want 2", got)
		}
	})
	t.Run("cut", func(t *testing.T) {
		// Frame 1 server→client is the handshake answer; cutting after
		// it means the link dies on the first in-flight task.
		p, err := NewProxy(addr, ConnScript{Fault: FaultCut, AfterFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(3)); err != nil {
			t.Fatal(err)
		}
		if awaitExit(t, c) == nil {
			t.Fatal("cut link exited with nil error")
		}
	})
	t.Run("trunc", func(t *testing.T) {
		p, err := NewProxy(addr, ConnScript{Fault: FaultTrunc, AfterFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(3)); err != nil {
			t.Fatal(err)
		}
		if err := awaitExit(t, c); !errors.Is(err, iox.ErrTornFrame) {
			t.Fatalf("truncated frame exit err = %v, want ErrTornFrame", err)
		}
	})
	t.Run("garble", func(t *testing.T) {
		p, err := NewProxy(addr, ConnScript{Fault: FaultGarble, AfterFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(3)); err != nil {
			t.Fatal(err)
		}
		if err := awaitExit(t, c); !errors.Is(err, iox.ErrFrameCRC) {
			t.Fatalf("garbled frame exit err = %v, want ErrFrameCRC", err)
		}
	})
	t.Run("stall", func(t *testing.T) {
		p, err := NewProxy(addr, ConnScript{Fault: FaultStall, AfterFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(3)); err != nil {
			t.Fatal(err)
		}
		// The link is open but nothing flows: no event arrives. This is
		// exactly the case only a silence watchdog (the flow's) can
		// detect; here we just assert the stall is real.
		select {
		case m, ok := <-c.Messages():
			t.Fatalf("stalled link delivered %+v (open %v)", m, ok)
		case <-time.After(500 * time.Millisecond):
		}
	})
	t.Run("delay", func(t *testing.T) {
		p, err := NewProxy(addr, ConnScript{Fault: FaultDelay, AfterFrames: 1, Delay: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(3)); err != nil {
			t.Fatal(err)
		}
		// Latency, not failure: the reply still lands.
		if reply := awaitConn(t, c, isReply); reply.Reply.Index != 3 {
			t.Fatalf("reply index = %d", reply.Reply.Index)
		}
	})
	t.Run("cut-mid-tile", func(t *testing.T) {
		// A beat is a frame: past the handshake answer (frame 0) the
		// count lands inside the tile, so the link dies after progress
		// crossed and before the reply — the "host died mid-tile"
		// scenario the flow tests build on.
		p, err := NewProxy(addr, ConnScript{Fault: FaultCut, AfterFrames: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := Dialer{}.Connect(context.Background(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Kill()
		if err := c.Send(task(4)); err != nil {
			t.Fatal(err)
		}
		crossed := 0
		for {
			select {
			case m, ok := <-c.Messages():
				switch {
				case !ok:
					if crossed != 1 {
						t.Fatalf("%d frames crossed before the cut, want the one beat", crossed)
					}
					return
				case m.Reply != nil:
					t.Fatal("reply crossed a link scripted to cut mid-tile")
				default:
					crossed++
				}
			case <-time.After(30 * time.Second):
				t.Fatal("timed out waiting for the scripted cut")
			}
		}
	})
}
