// Package procworker is the engine-backed tile worker: the glue that
// sits above internal/flow, internal/engine and internal/netpool and
// runs tile tasks. It serves the worker side of a tile session on a
// re-executed binary's stdin/stdout (ServeIfWorker) or on a listener
// (Listen), and replays a quarantine bundle offline through the same
// executor (Run). It exists as its own package (rather than living in
// flow) because engine construction imports the flow — procpool stays
// a leaf, the flow stays below the engine registry, and a binary that
// wants to be its own worker (cmd/cfaopc) just calls ServeIfWorker.
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
// metadata, and ServeTask binds the task's window simulator, whose first
// pass fetches the kernels from the process-wide optics cache (every
// window in a run shares one imaging condition, so a healthy session
// decomposes them at most once, and a rule-only session never). The
// executor keeps no state, so concurrent TCP sessions stay race-free.
func Runner() procpool.Runner {
	return func(ctx context.Context, t *procpool.Task, sink procpool.Sink) procpool.Reply {
		primary, fallback, err := engine.FromMeta(t.Bundle.Engines)
		if err != nil {
			return procpool.Reply{Index: t.Bundle.Tile.Index, Err: "engine: " + err.Error()}
		}
		return flow.ServeTask(ctx, t, primary, fallback, sink)
	}
}

// Listen serves a session over TCP, one per coordinator connection,
// each handshaken under the handshake deadline and, when pin is set,
// refused unless its config fingerprint matches. It blocks until the
// listener closes.
func Listen(ln net.Listener, pin string, handshake time.Duration) error {
	srv := &netpool.Server{Pin: pin, Handshake: handshake, Runner: Runner}
	return srv.Serve(ln)
}

// ServeIfWorker is the re-exec branch every worker-capable binary runs
// first: when the process was spawned as a tile worker
// (procpool.InWorker), it serves one session on its stdin/stdout — the
// worker end of a coordinator's procpool.Spawn — until the coordinator
// closes the task stream, and exits. Returns without side effects
// otherwise.
func ServeIfWorker() {
	if !procpool.InWorker() {
		return
	}
	srv := &netpool.Server{Runner: Runner}
	if err := srv.ServeConn(procpool.Stdio()); err != nil {
		log.Fatal(err)
	}
	os.Exit(0)
}
