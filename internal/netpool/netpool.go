package netpool

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"cfaopc/internal/procpool"
)

// DefaultHandshake bounds the dial + Hello exchange when the caller
// does not set a deadline of its own.
const DefaultHandshake = 5 * time.Second

// Dialer opens coordinator-side sessions with tile workers. The zero
// value dials plain TCP with the default handshake deadline and no
// fingerprint.
type Dialer struct {
	// Fingerprint is the run's config fingerprint, sent in the opening
	// Hello. A worker started with a fingerprint pin refuses a
	// coordinator whose fingerprint differs (config skew fails the
	// handshake, not the run).
	Fingerprint string
	// Handshake bounds the whole connect: dial, Hello out, Hello back.
	// Zero means DefaultHandshake.
	Handshake time.Duration
	// Dial overrides the transport: a subprocess's pipes
	// (procpool.Spawn), or in tests the chaos proxy or in-memory pipes.
	// Nil dials TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// handshakeOr resolves a Dialer's or Server's Handshake field.
func handshakeOr(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return DefaultHandshake
}

// Connect dials addr and runs the handshake: the coordinator's Hello
// (version + fingerprint) goes first, the worker answers with its own
// Hello (echoing the accepted fingerprint) or a Reject. Any skew —
// protocol version, fingerprint pin — and any silence past the
// handshake deadline fail here, before a single task is risked on the
// link, and the connection is closed (a spawned worker is dead).
func (d Dialer) Connect(ctx context.Context, addr string) (*Conn, error) {
	deadline := time.Now().Add(handshakeOr(d.Handshake))
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	dial := d.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var nd net.Dialer
			return nd.DialContext(ctx, "tcp", addr)
		}
	}
	nc, err := dial(dctx, addr)
	if err != nil {
		return nil, fmt.Errorf("netpool: dial %s: %w", addr, err)
	}
	nc.SetDeadline(deadline)
	hello, err := shake(nc, d.Fingerprint)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("netpool: handshake with %s: %w", addr, err)
	}
	nc.SetDeadline(time.Time{})
	c := &Conn{
		Hello: *hello,
		nc:    nc,
		// Room for a burst of beats and pings while the slot is busy;
		// the reader blocks beyond it.
		msgs: make(chan *procpool.Message, 64),
		done: make(chan struct{}),
		dead: make(chan struct{}),
	}
	go c.read()
	return c, nil
}

// shake performs the client half of the handshake on an
// already-deadlined conn and returns the worker's Hello.
func shake(nc net.Conn, fingerprint string) (*procpool.Hello, error) {
	if err := procpool.WriteMessage(nc, &procpool.Message{Hello: &procpool.Hello{
		Version: procpool.ProtocolVersion, PID: os.Getpid(), Fingerprint: fingerprint,
	}}); err != nil {
		return nil, err
	}
	m, err := procpool.ReadMessage(nc)
	if err != nil {
		return nil, err
	}
	switch {
	case m.Hello == nil:
		return nil, fmt.Errorf("first frame is not a hello")
	case m.Hello.Reject != "":
		return nil, fmt.Errorf("worker refused: %s", m.Hello.Reject)
	case m.Hello.Version != procpool.ProtocolVersion:
		return nil, fmt.Errorf("worker speaks protocol v%d, coordinator v%d", m.Hello.Version, procpool.ProtocolVersion)
	}
	return m.Hello, nil
}

// Conn is one coordinator→worker session after a successful handshake,
// over whatever the Dialer dialed: tasks in via Send, everything out via
// the Messages stream, link death via its close and Err. It does no
// policy — reconnect, backoff and circuit-breaking live in the flow's
// slot.
type Conn struct {
	// Hello is the worker's handshake answer (PID, echoed fingerprint).
	Hello procpool.Hello

	nc net.Conn

	msgs chan *procpool.Message
	err  error         // why the stream ended; written before msgs closes
	done chan struct{} // closed by Kill/Close: no more delivery
	dead chan struct{} // closed when the reader goroutine exits

	wmu       sync.Mutex
	killOnce  sync.Once
	closeOnce sync.Once
}

// Messages is the session's output stream: the worker's Ping, Beat and
// Reply messages as decoded, in order. It is closed when the
// link ends — the worker died, the stream broke, or the session was
// killed; the reason is kept in err.
func (c *Conn) Messages() <-chan *procpool.Message { return c.msgs }

// Err is the terminal error of a session whose Messages stream has
// closed: io.EOF for a clean close by the worker, the framing, decode or
// transport error otherwise.
func (c *Conn) Err() error { return c.err }

// Send frames one task to the worker.
func (c *Conn) Send(t *procpool.Task) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return procpool.WriteMessage(c.nc, &procpool.Message{Task: t})
}

// Kill tears the link down immediately and stops message delivery. A
// spawned worker is SIGKILLed and reaped; a listening host survives and
// serves its next coordinator.
func (c *Conn) Kill() {
	c.killOnce.Do(func() {
		close(c.done)
		c.nc.Close()
	})
}

// Close shuts the session down gracefully: half-closing the write side
// gives the worker loop its EOF, and the reader drains until the worker
// closes its end (bounded; then the link is torn down).
func (c *Conn) Close() {
	c.closeOnce.Do(func() {
		type closeWriter interface{ CloseWrite() error }
		if cw, ok := c.nc.(closeWriter); ok {
			c.wmu.Lock()
			cw.CloseWrite()
			c.wmu.Unlock()
			select {
			case <-c.dead:
			case <-time.After(2 * time.Second):
			}
		}
		c.Kill()
	})
}

// read delivers the worker's messages until the link breaks, then makes
// the peer's death true (closing the connection kills a spawned worker
// that sent garbage but lives on) and closes the stream.
func (c *Conn) read() {
	defer close(c.dead)
	defer close(c.msgs)
	defer c.nc.Close()
	for {
		m, err := procpool.ReadMessage(c.nc)
		if err != nil {
			c.err = err // io.EOF when the worker closed cleanly
			return
		}
		if m.Hello != nil || m.Task != nil {
			c.err = fmt.Errorf("netpool: unexpected frame from worker")
			return
		}
		select {
		case c.msgs <- m:
		case <-c.done: // the coordinator abandoned this link
		}
	}
}
