// Command cfaopcd serves the tiled OPC flow as a long-running daemon:
// clients POST JSON job specs, watch per-tile progress over SSE, and
// download the shot list and mask once the job is done.
//
//	cfaopcd -listen :8686 -data /var/lib/cfaopcd -layout-root /layouts
//
// Jobs queue on a bounded scheduler with priority ordering and
// per-tenant fairness; -max-active bounds how many run at once.
//
// Overload safety: every spec is priced by a deterministic cost model
// and admitted against -mem-budget-mb (429 + Retry-After past it, 400
// for jobs bigger than the whole budget); per-job deadline_ms and
// -queue-ttl expire jobs into the terminal deadline_exceeded state;
// and a watermark monitor walks a degradation ladder under measured
// heap pressure (shrink window cache -> pause admissions -> shed the
// youngest over-budget running job), with a wedge watchdog killing
// jobs that stop emitting events. See DESIGN.md §9.
//
// Every job persists through two journals — the daemon's job-state log
// and the flow's tile checkpoint — so a daemon killed mid-run (even
// SIGKILL) restarts with every unfinished job requeued, resumed from
// its checkpoint, and finishing with byte-identical output; SSE
// clients reconnect with Last-Event-ID and replay exactly the events
// they missed.
//
// The listener's actual address is written to <data>/addr once the
// daemon is serving, so scripts using -listen 127.0.0.1:0 can find it.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfaopcd: ")

	var (
		listen     = flag.String("listen", "127.0.0.1:8686", "HTTP listen address (port 0 picks one; see <data>/addr)")
		dataDir    = flag.String("data", "", "state directory: job journals, checkpoints, masks (required)")
		layoutRoot = flag.String("layout-root", ".", "directory job specs resolve layout refs under")
		maxActive  = flag.Int("max-active", 1, "jobs running concurrently")
		queueCap   = flag.Int("queue-cap", 64, "queued-job cap; beyond it submissions get 429")

		memBudgetMB = flag.Int64("mem-budget-mb", 2048, "admission memory budget in MiB; jobs are priced by EstimateCost and 429ed past it")
		heapHighMB  = flag.Int64("heap-high-mb", 0, "heap high watermark in MiB (0 = the budget); crossing it pauses admissions, holding it sheds")
		heapLowMB   = flag.Int64("heap-low-mb", 0, "heap low watermark in MiB (0 = 3/4 of high); crossing it shrinks the window cache")
		queueTTL    = flag.Duration("queue-ttl", 0, "max queue wait before a job ends deadline_exceeded (0 = none)")
		wedgeTO     = flag.Duration("wedge-timeout", 2*time.Minute, "kill running jobs that publish no event for this long (<0 disables)")
		maxWait     = flag.Duration("max-queue-wait", 5*time.Minute, "anti-starvation bound: queued past this preempts every priority (<0 disables)")
		monitorTick = flag.Duration("monitor-every", 500*time.Millisecond, "governor pulse interval: watermark sample, deadline sweep, wedge scan")
		cacheMB     = flag.Int64("cache-mb", 0, "shared window dedup cache memory tier in MiB (0 = off); shrinks under heap pressure")
	)
	flag.Parse()
	if *dataDir == "" {
		log.Fatal("-data <dir> is required")
	}

	cfg := server.ManagerConfig{
		DataDir:    *dataDir,
		LayoutRoot: *layoutRoot,
		MaxActive:  *maxActive,
		QueueCap:   *queueCap,
		Governor: server.GovernorConfig{
			MemBudget: *memBudgetMB << 20,
			HeapHigh:  *heapHighMB << 20,
			HeapLow:   *heapLowMB << 20,
		},
		QueueTTL:     *queueTTL,
		WedgeTimeout: *wedgeTO,
		MaxQueueWait: *maxWait,
		MonitorEvery: *monitorTick,
	}
	if *cacheMB > 0 {
		cache, err := wcache.New(wcache.Config{MaxBytes: *cacheMB << 20})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cache = cache
	}
	m, err := server.NewManager(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m.Start()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// Publish the bound address last-thing-before-serving so a watcher
	// that sees the file knows the API is up.
	addrPath := filepath.Join(*dataDir, "addr")
	if err := os.WriteFile(addrPath, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewHandler(m)}

	stopped := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(stopped)
		<-sigCh
		log.Print("signal: shutting down — running jobs checkpoint and resume on the next start")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		m.Stop()
	}()

	log.Printf("serving on %s (data %s)", ln.Addr(), *dataDir)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-stopped
}
