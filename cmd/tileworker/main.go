// Command tileworker runs tile tasks, the unit of work the tiled flow
// hands to a worker, through the one engine-backed executor
// (procworker.Runner). It has two modes.
//
// With -listen it is a remote tile worker: the worker side of the tile
// session protocol (coordinator-first Hello with protocol version and
// config fingerprint, then CRC-guarded task/beat/reply frames), one
// session per accepted TCP connection (cfaopc -remote-hosts,
// flow.Config.RemoteHosts). Local worker subprocesses are not this
// binary: cfaopc -proc-workers re-executes cfaopc itself.
//
// Given a quarantine bundle (cfaopc -quarantine-dir) it replays the
// failed tile offline and reports whether the recorded failure
// reproduces, attempt by attempt. A bundle is a task, so the replay
// walks the ladder a worker would.
//
// Usage:
//
//	tileworker -listen :9643 [-fingerprint fp] [-handshake 5s]
//	tileworker bundle.qrb               # does the failure reproduce?
//	tileworker -fixed circlerule b.qrb  # does a candidate engine fix it?
//
// Replay exit status: 0 when the failure reproduced (or, with -fixed,
// when the fix made the tile succeed); 2 when it did not; 1 on error.
// The attempt table diffs the replayed error sequence against the one
// the live run recorded, so a divergence points at nondeterminism rather
// than at the captured inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfaopc/internal/procworker"
	"cfaopc/internal/quarantine"
)

const usage = "usage: tileworker -listen addr [-fingerprint fp] [-handshake d] | tileworker [-fixed method] bundle.qrb"

func main() {
	log.SetFlags(0)
	log.SetPrefix("tileworker: ")
	listen := flag.String("listen", "", "serve tile tasks over TCP on this address (e.g. :9643)")
	fingerprint := flag.String("fingerprint", "", "with -listen: reject coordinators whose run config differs (empty accepts any)")
	handshake := flag.Duration("handshake", 5*time.Second, "with -listen: deadline for each connection's Hello exchange")
	fixed := flag.String("fixed", "", "with a bundle: replace its primary engine with this method and test the fix")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case flag.NArg() == 0 && *listen != "" && !set["fixed"]:
		serve(*listen, *fingerprint, *handshake)
	case flag.NArg() == 1 && !set["listen"] && !set["fingerprint"] && !set["handshake"]:
		os.Exit(replay(flag.Arg(0), *fixed))
	default:
		log.Fatal(usage)
	}
}

// serve runs one tile session per accepted connection until SIGINT or
// SIGTERM closes the listener; in-flight sessions finish their current
// task stream before it returns.
func serve(addr, pin string, handshake time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		ln.Close()
	}()
	if err := procworker.Listen(ln, pin, handshake); err != nil {
		log.Fatal(err)
	}
}

// replay re-runs the bundle at path, prints the attempt-by-attempt diff
// and the verdict, and returns the exit status.
func replay(path, fixed string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := quarantine.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle: layout %q tile %d core(%d,%d) window %dpx, engines %s→%s, %d recorded attempts\n",
		b.LayoutName, b.Tile.Index, b.Tile.CX, b.Tile.CY, b.Tile.WindowPx,
		b.Engines.Primary, orNone(b.Engines.Fallback), len(b.Attempts))

	start := time.Now()
	rep, err := procworker.Run(ctx, b, procworker.Options{Fixed: fixed})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rep.Attempts {
		mark := "=="
		if !d.Match {
			mark = "!="
		}
		fmt.Printf("  attempt %d: recorded [%s] %s\n             replayed [%s] %s  %s\n",
			d.Index, d.Recorded.Engine, orClean(d.Recorded.Err),
			d.Replayed.Engine, orClean(d.Replayed.Err), mark)
	}
	fmt.Printf("replay: path=%s attempts=%d wall=%s\n",
		orNone(rep.Path), rep.Walked, time.Since(start).Round(time.Millisecond))

	switch {
	case fixed != "" && rep.Fixed:
		fmt.Printf("FIXED: primary %q succeeds on the captured window (%d shots)\n", fixed, len(rep.Shots))
		return 0
	case fixed != "":
		fmt.Printf("NOT FIXED: primary %q still ends on path %q\n", fixed, rep.Path)
		return 2
	case rep.Reproduced:
		fmt.Println("REPRODUCED: identical attempt-by-attempt failure sequence")
		return 0
	default:
		fmt.Println("NOT REPRODUCED: replay diverged from the recorded history")
		return 2
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func orClean(s string) string {
	if s == "" {
		return "ok"
	}
	return s
}
