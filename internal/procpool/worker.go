package procpool

import (
	"context"
	"io"
	"os"
	"sync"
	"time"
)

// WorkerEnv marks a process as a tile worker. Supervisors set it to "1"
// in every child they spawn; binaries that can serve as their own
// worker (cmd/cfaopc, the flow test binary) branch on InWorker before
// doing anything else.
const WorkerEnv = "CFAOPC_TILE_WORKER"

// InWorker reports whether this process was spawned as a tile worker.
func InWorker() bool { return os.Getenv(WorkerEnv) == "1" }

// pingEvery is the worker's liveness cadence while a task is in
// flight. Idle workers stay silent — the supervisor's watchdog only
// runs while it is waiting on a reply.
const pingEvery = 100 * time.Millisecond

// Sink receives the liveness stream a running task emits, one call per
// heartbeat; ServeTasks forwards each call as one frame to the supervisor.
type Sink func(index, iter int, loss float64)

// Runner executes one task and returns its reply. The flow side
// (flow.ServeTask via a caller-built adapter) is injected rather than
// imported so procpool stays a leaf package.
type Runner func(ctx context.Context, t *Task, sink Sink) Reply

// ServeTasks is the worker task loop of a session whose handshake has
// completed: read tasks off r one at a time, run each through the
// injected Runner while pinging, and write the reply to w. EOF on r is
// the coordinator's clean shutdown and returns nil; any other stream
// error is fatal to the session. The first frame that cannot be written
// cancels the running task's context — a coordinator that cut the link
// has abandoned the tile, and finishing it would only burn the host.
func ServeTasks(r io.Reader, w io.Writer, run Runner) error {
	var mu sync.Mutex
	for {
		m, err := ReadMessage(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if m.Task == nil {
			continue // tolerate non-task frames from future supervisors
		}
		ctx, cancel := context.WithCancel(context.Background())
		send := func(m *Message) error {
			mu.Lock()
			defer mu.Unlock()
			err := WriteMessage(w, m)
			if err != nil {
				cancel()
			}
			return err
		}
		var pinger sync.WaitGroup
		pinger.Add(1)
		go func() {
			defer pinger.Done()
			t := time.NewTicker(pingEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					send(&Message{Ping: &Ping{}})
				}
			}
		}()
		reply := run(ctx, m.Task, func(index, iter int, loss float64) {
			send(&Message{Beat: &Beat{Index: index, Iter: iter, Loss: loss}})
		})
		cancel()
		pinger.Wait()
		if err := send(&Message{Reply: &reply}); err != nil {
			return err
		}
	}
}
