// Command tileworker is the standalone tile-worker binary: the worker
// side of the one session protocol the tiled flow's two dispatch modes
// share (coordinator-first Hello with protocol version and config
// fingerprint, then CRC-guarded task/beat/reply frames). By
// default it serves a single session on stdin/stdout — what a
// coordinator's -proc-workers -worker-bin spawns; with -listen it
// serves one session per accepted TCP connection
// (flow.Config.RemoteHosts). cmd/cfaopc re-executes itself as its own
// worker by default, so the stdin/stdout mode of this binary exists for
// deployments that want the worker pinned to a separate (smaller, or
// differently sandboxed) executable.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfaopc/internal/procworker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tileworker: ")
	listen := flag.String("listen", "", "serve tile tasks over TCP on this address (e.g. :9643); empty serves one session on stdin/stdout")
	fingerprint := flag.String("fingerprint", "", "config fingerprint pin: reject coordinators whose run config differs (empty accepts any)")
	handshake := flag.Duration("handshake", 5*time.Second, "deadline for each connection's Hello exchange")
	flag.Parse()

	if *listen == "" {
		if err := procworker.Serve(*fingerprint); err != nil {
			log.Fatal(err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	// SIGINT/SIGTERM close the listener; in-flight sessions finish
	// their current task stream before Listen returns.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		ln.Close()
	}()
	if err := procworker.Listen(ln, *fingerprint, *handshake); err != nil {
		log.Fatal(err)
	}
}
