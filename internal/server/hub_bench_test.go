package server

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cfaopc/internal/testkit/faultfs"
)

// bridgePost is what Manager.execute's event bridge does per flow event.
func bridgePost(h *hub, ev JobEvent) error {
	err := h.post(ev)
	runtime.Gosched()
	return err
}

// BenchmarkHubPublish times one hub on the real filesystem. wait is a
// state publisher: serial events, each returning once its own fsync has;
// bridge is the flow bridge with no compute between events — one poster
// against the committer, close's drain inside the timer — so its
// fsyncs/event is the floor batching can reach, not what a job sees.
func BenchmarkHubPublish(b *testing.B) {
	spec, err := ParseSpec(strings.NewReader(`{"case":1}`))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"wait", "bridge"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			rec := faultfs.NewRecorder(nil, dir)
			h, err := newHubFS(rec, filepath.Join(dir, "events.log"), "job-0001", spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "wait" {
					_, err = h.publish(JobEvent{Kind: "state", State: "running"})
				} else {
					err = bridgePost(h, JobEvent{Kind: "tile", Tile: i, Shots: 29, Path: "primary"})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			h.close()
			b.StopTimer()
			if got := h.lastSeq(); got != int64(b.N) {
				b.Fatalf("%d of %d events released", got, b.N)
			}
			fsyncs := 0
			for _, op := range rec.Ops() {
				if op.Kind == faultfs.OpSync {
					fsyncs++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/event")
		})
	}
}
