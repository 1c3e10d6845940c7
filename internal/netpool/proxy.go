package netpool

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/procpool"
)

// FaultKind enumerates the link failures the chaos Proxy injects — the
// network analog of flow.InjectFaults' per-attempt fault script.
type FaultKind int

const (
	// FaultNone forwards faithfully (the explicit no-op script).
	FaultNone FaultKind = iota
	// FaultRefuse closes the connection immediately on accept — the
	// observable shape of a dead or partitioned host.
	FaultRefuse
	// FaultCut forwards until the trigger, then drops the connection —
	// a link failure or host death mid-tile.
	FaultCut
	// FaultTrunc forwards until the trigger, then ships half a frame
	// and drops the connection — a torn frame at the coordinator.
	FaultTrunc
	// FaultGarble forwards until the trigger, then flips one payload
	// byte — the CRC guard turns it into a poisoned-link detection.
	FaultGarble
	// FaultStall forwards until the trigger, then stops forwarding
	// while holding the connection open — a wedged remote; only the
	// silence watchdog can see it.
	FaultStall
	// FaultDelay adds a fixed pause before every worker→coordinator
	// frame from the trigger on — latency without failure.
	FaultDelay
)

// ConnScript is the fault schedule for one proxied connection. Faults
// fire on the worker→coordinator stream (the direction carrying replies
// and beats) once AfterFrames frames have been forwarded; a beat is a
// frame, so a count past the handshake cuts a link mid-tile.
type ConnScript struct {
	Fault       FaultKind
	AfterFrames int
	Delay       time.Duration // FaultDelay's per-frame pause
}

// Proxy is a deterministic network fault injector: a TCP forwarder in
// front of a real worker host that applies a per-connection fault
// script, in accept order. Connections beyond the script list forward
// faithfully, so "fail twice, then heal" is the natural encoding.
// Because the scripts key on connection ordinals and frame counts —
// not on timing — a chaos run is reproducible.
type Proxy struct {
	ln      net.Listener
	target  string
	scripts []ConnScript

	mu       sync.Mutex
	accepted int

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and forwards each accepted
// connection to target under its script.
func NewProxy(target string, scripts ...ConnScript) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netpool: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, scripts: scripts, closed: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dial address — what the coordinator's RemoteHosts
// entry points at.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many connections the proxy has seen — the next
// connection gets script index Accepted().
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Close stops accepting, tears down in-flight forwards, and waits for
// them to finish.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.ln.Close()
	})
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		n := p.accepted
		p.accepted++
		p.mu.Unlock()
		script := ConnScript{}
		if n < len(p.scripts) {
			script = p.scripts[n]
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.forward(client, script)
		}()
	}
}

// forward runs one proxied connection to completion under its script.
func (p *Proxy) forward(client net.Conn, script ConnScript) {
	defer client.Close()
	if script.Fault == FaultRefuse {
		return // accept, say nothing, hang up: a dead host
	}
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer server.Close()

	// Tear both sides down on proxy Close so a stalled connection does
	// not outlive the test.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-p.closed:
			client.Close()
			server.Close()
		case <-stop:
		}
	}()

	// Coordinator→worker: forwarded faithfully (the scripts model a
	// lossy return path; task frames either arrive or the cut kills
	// both directions anyway). Half-close propagates so the worker's
	// task loop sees its EOF on graceful coordinator shutdown.
	go func() {
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			server.Close()
		}
	}()

	p.pump(client, server, script)
}

// pump forwards worker→coordinator frames, firing the script's fault at
// its trigger.
func (p *Proxy) pump(client, server net.Conn, script ConnScript) {
	for frames := 0; ; frames++ {
		payload, err := iox.ReadFrame(server, procpool.MaxFrameBytes)
		if err != nil {
			return // worker closed or died: propagate by closing (deferred)
		}
		frame, _ := iox.AppendFrame(nil, payload, procpool.MaxFrameBytes) // just read under the same cap
		if script.Fault != FaultNone && frames >= script.AfterFrames {
			switch script.Fault {
			case FaultCut:
				return
			case FaultTrunc:
				client.Write(frame[:8+len(payload)/2])
				return
			case FaultGarble:
				frame[8+len(payload)/2] ^= 0x40
				client.Write(frame)
				return
			case FaultStall:
				// Hold both connections open, forward nothing: only a
				// silence watchdog can tell this from a slow tile.
				<-p.closed
				return
			case FaultDelay:
				select {
				case <-time.After(script.Delay):
				case <-p.closed:
					return
				}
			}
		}
		if _, err := client.Write(frame); err != nil {
			return
		}
	}
}
