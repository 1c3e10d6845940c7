// Command replaytile re-runs a quarantine repro bundle written by the
// tiled flow (cfaopc -quarantine-dir) and reports whether the recorded
// failure reproduces, attempt by attempt.
//
// Usage:
//
//	replaytile bundle.qrb               # does the failure reproduce?
//	replaytile -fixed circlerule b.qrb  # does a candidate engine fix it?
//	replaytile -no-faults b.qrb         # does it fail without the injected script?
//
// Exit status: 0 when the failure reproduced (or, with -fixed, when the
// fix made the tile succeed); 2 when it did not; 1 on error. The
// attempt table diffs the replayed error sequence against the one the
// live run recorded, so a divergence points at nondeterminism rather
// than at the captured inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfaopc/internal/quarantine"
	"cfaopc/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replaytile: ")

	var (
		fixed    = flag.String("fixed", "", "replace the primary engine with this method and test the fix")
		noFaults = flag.Bool("no-faults", false, "skip re-injecting the bundle's recorded fault script")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: replaytile [flags] bundle.qrb")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := quarantine.Load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle: layout %q tile %d core(%d,%d) window %dpx, engines %s→%s, %d recorded attempts\n",
		b.LayoutName, b.Tile.Index, b.Tile.CX, b.Tile.CY, b.Tile.WindowPx,
		b.Engines.Primary, orNone(b.Engines.Fallback), len(b.Attempts))

	start := time.Now()
	rep, err := replay.Run(ctx, b, replay.Options{Fixed: *fixed, NoFaults: *noFaults})
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
	case *fixed != "":
		if rep.Fixed {
			fmt.Printf("FIXED: primary %q succeeds on the captured window (%d shots)\n", *fixed, len(rep.Shots))
			return
		}
		fmt.Printf("NOT FIXED: primary %q still ends on path %q\n", *fixed, rep.Path)
		os.Exit(2)
	case rep.Reproduced:
		fmt.Println("REPRODUCED: identical attempt-by-attempt failure sequence")
	default:
		fmt.Println("NOT REPRODUCED: replay diverged from the recorded history")
		os.Exit(2)
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
