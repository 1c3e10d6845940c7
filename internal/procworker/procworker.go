// Package procworker is the engine-backed tile worker: the glue that
// sits above internal/flow, internal/engine and internal/netpool and
// turns a process into the worker side of a tile session, on its own
// stdin/stdout or on a listener. It exists as its own package (rather
// than living in flow) because engine construction imports the flow —
// procpool stays a leaf, the flow stays below the engine registry, and
// a binary that wants to be its own worker (cmd/cfaopc) just calls
// ServeIfWorker.
package procworker

import (
	"context"
	"log"
	"net"
	"os"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/netpool"
	"cfaopc/internal/procpool"
)

// Runner builds the engine-backed task executor one worker session
// uses: each task's optimizer chain is rebuilt from its bundle's engine
// metadata, and the window simulator is cached across tasks (every
// window in a run shares one imaging condition, so a healthy session
// pays kernel setup once). Each call returns an independent executor —
// sessions never share the simulator cache, so concurrent TCP sessions
// stay race-free.
func Runner() procpool.Runner {
	var cache flow.SimCache
	return func(ctx context.Context, t *procpool.Task, sink procpool.Sink) procpool.Reply {
		b := &t.Bundle
		reply := procpool.Reply{Index: b.Tile.Index}
		primary, fallback, err := engine.FromMeta(b.Engines)
		if err != nil {
			reply.Err = "engine: " + err.Error()
			return reply
		}
		sim, err := cache.For(t)
		if err != nil {
			reply.Err = "litho: " + err.Error()
			return reply
		}
		return flow.ServeTask(ctx, sim, t, primary, fallback, sink)
	}
}

// Serve runs one session on this process's stdin/stdout — the worker
// end of a coordinator's procpool.Spawn — until the coordinator closes
// the task stream. pin is the optional config fingerprint pin.
func Serve(pin string) error {
	srv := &netpool.Server{Pin: pin, Runner: Runner}
	return srv.ServeConn(procpool.Stdio())
}

// Listen serves the same session over TCP, one per coordinator
// connection, each handshaken under the handshake deadline. It blocks
// until the listener closes.
func Listen(ln net.Listener, pin string, handshake time.Duration) error {
	srv := &netpool.Server{Pin: pin, Handshake: handshake, Runner: Runner}
	return srv.Serve(ln)
}

// ServeIfWorker is the re-exec branch every worker-capable binary runs
// first: when the process was spawned as a tile worker
// (procpool.InWorker), it serves its stdin/stdout and exits. Returns
// without side effects otherwise.
func ServeIfWorker() {
	if !procpool.InWorker() {
		return
	}
	if err := Serve(""); err != nil {
		log.Fatal(err)
	}
	os.Exit(0)
}
