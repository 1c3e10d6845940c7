package netpool

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"cfaopc/internal/procpool"
)

// Server is the worker side of a session: ServeConn handshakes one
// connection (version + optional fingerprint pin, under a deadline) and
// then runs procpool.ServeTasks on it. Serve does that for every
// connection a listener accepts; a spawned worker calls ServeConn once,
// on procpool.Stdio.
type Server struct {
	// Pin, when non-empty, is the only config fingerprint this worker
	// accepts: a coordinator whose Hello carries anything else is
	// rejected at the handshake. Empty accepts any coordinator.
	Pin string
	// Handshake bounds the wait for the coordinator's Hello on a fresh
	// connection — a port-scanner or wedged peer is cut loose instead of
	// holding a session goroutine forever. Zero means DefaultHandshake.
	Handshake time.Duration
	// Runner builds the task executor for one session. Called once per
	// accepted connection, so sessions never share mutable state.
	Runner func() procpool.Runner
}

// Serve accepts connections until the listener closes, serving each in
// its own goroutine. It returns nil when ln was closed (the normal
// shutdown path) and the accept error otherwise; it does not return
// until every in-flight session has finished.
func (s *Server) Serve(ln net.Listener) error {
	var sessions sync.WaitGroup
	defer sessions.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("netpool: accept: %w", err)
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			s.ServeConn(nc)
		}()
	}
}

// ServeConn runs one coordinator session to completion: handshake,
// then tasks until EOF. The connection is always closed on return. The
// returned error is diagnostic (the coordinator side decides policy);
// a clean EOF after the handshake returns nil.
func (s *Server) ServeConn(nc net.Conn) error {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(handshakeOr(s.Handshake)))
	if err := s.accept(nc); err != nil {
		return err
	}
	nc.SetDeadline(time.Time{})
	return procpool.ServeTasks(nc, nc, s.Runner())
}

// accept reads and validates the coordinator's Hello and answers it —
// with an echo of the accepted fingerprint, or with a Reject (which is
// also the error returned) when the coordinator's version or config
// disagrees with this worker.
func (s *Server) accept(nc net.Conn) error {
	m, err := procpool.ReadMessage(nc)
	if err != nil {
		return fmt.Errorf("netpool: read hello: %w", err)
	}
	if m.Hello == nil {
		return s.reject(nc, "first frame is not a hello")
	}
	if m.Hello.Version != procpool.ProtocolVersion {
		return s.reject(nc, fmt.Sprintf("protocol skew: coordinator v%d, worker v%d", m.Hello.Version, procpool.ProtocolVersion))
	}
	if s.Pin != "" && m.Hello.Fingerprint != s.Pin {
		return s.reject(nc, "config fingerprint mismatch: coordinator and worker were built for different runs")
	}
	if err := procpool.WriteMessage(nc, &procpool.Message{Hello: &procpool.Hello{
		Version: procpool.ProtocolVersion, PID: os.Getpid(), Fingerprint: m.Hello.Fingerprint,
	}}); err != nil {
		return fmt.Errorf("netpool: answer hello: %w", err)
	}
	return nil
}

// reject sends a terminal Reject hello (best-effort) and returns the
// reason as an error.
func (s *Server) reject(nc net.Conn, reason string) error {
	procpool.WriteMessage(nc, &procpool.Message{Hello: &procpool.Hello{
		Version: procpool.ProtocolVersion, PID: os.Getpid(), Reject: reason,
	}})
	return fmt.Errorf("netpool: handshake rejected: %s", reason)
}
