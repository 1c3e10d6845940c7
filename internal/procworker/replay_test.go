package procworker

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// tileDeadline is the TileTimeout of the run quarantinedBundle records:
// far too short for its CircleOpt primary, and long enough for a
// CircleRule tile even under the race detector.
const tileDeadline = 10 * time.Millisecond

var (
	bundleMu sync.Mutex
	bundle   *quarantine.Bundle
)

// quarantinedBundle runs a small tiled flow whose one occupied tile fails
// for real — a CircleOpt primary given a hundred iterations and a
// tileDeadline it cannot meet, twice retried, no fallback — and returns
// the bundle the flow wrote for it. The run happens once per test binary;
// each caller gets its own copy of the bundle. Lives here (not in package
// flow) because the full loop — flow writes, engine rebuilds, replay
// re-runs — crosses an import cycle flow's own tests cannot.
func quarantinedBundle(t *testing.T) *quarantine.Bundle {
	t.Helper()
	bundleMu.Lock()
	defer bundleMu.Unlock()
	if bundle == nil {
		l := &layout.Layout{
			Name:   "corner",
			TileNM: 1024,
			Rects:  []layout.Rect{{X: 660, Y: 660, W: 80, H: 220}}, // tile 3 of the 2×2 tiling
		}
		opts := engine.Options{Iters: 100, Gamma: 3, SampleNM: 32}
		primary, err := engine.For("circleopt", opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := flow.Config{
			GridN:         128,
			CorePx:        64,
			HaloPx:        16,
			Optics:        optics.Default(),
			KOpt:          4,
			Optimize:      primary,
			TileRetries:   2,
			TileTimeout:   tileDeadline,
			RMinPx:        1,
			RMaxPx:        40,
			QuarantineDir: filepath.Join(t.TempDir(), "quarantine"),
			Engines:       engine.Meta("circleopt", "", opts),
		}
		res, err := flow.RunContext(context.Background(), l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Quarantined != 1 || res.TileStats[3].Bundle == "" {
			t.Fatalf("expected tile 3 quarantined: %+v", res.TileStats[3])
		}
		if bundle, err = quarantine.Load(res.TileStats[3].Bundle); err != nil {
			t.Fatal(err)
		}
	}
	b := *bundle
	return &b
}

func TestReplayReproduces(t *testing.T) {
	b := quarantinedBundle(t)
	rep, err := Run(context.Background(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced || !rep.PathMatch || rep.Fixed {
		t.Fatalf("report: reproduced=%v pathMatch=%v fixed=%v", rep.Reproduced, rep.PathMatch, rep.Fixed)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempt diffs: %+v", rep.Attempts)
	}
	for _, d := range rep.Attempts {
		if !d.Match {
			t.Fatalf("attempt %d diverged: recorded (%s) %q, replayed (%s) %q",
				d.Index, d.Recorded.Engine, d.Recorded.Err, d.Replayed.Engine, d.Replayed.Err)
		}
	}
	for i, oc := range rep.Attempts {
		if oc.Replayed.Err == "" || oc.Recorded.Err != b.Attempts[i].Err {
			t.Fatalf("attempt %d error bookkeeping: %+v vs bundle %+v", i, oc, b.Attempts[i])
		}
	}
}

// The fix-verification loop: swapping in a candidate primary that meets
// the captured deadline must report Fixed.
func TestReplayFixedEngine(t *testing.T) {
	b := quarantinedBundle(t)
	rep, err := Run(context.Background(), b, Options{Fixed: "circlerule"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed || rep.Reproduced {
		t.Fatalf("report: fixed=%v reproduced=%v path=%q", rep.Fixed, rep.Reproduced, rep.Path)
	}
	if b.TileTimeout != tileDeadline || len(rep.Shots) == 0 {
		t.Fatalf("fixed replay under a %s deadline: %d shots", b.TileTimeout, len(rep.Shots))
	}
}

func TestReplayRejectsInvalidBundle(t *testing.T) {
	b := quarantinedBundle(t)
	b.Target = b.Target[:10] // raster no longer matches TargetW×TargetH
	if _, err := Run(context.Background(), b, Options{}); err == nil {
		t.Fatal("truncated bundle accepted")
	}
}

func TestReplayUnknownFixedEngine(t *testing.T) {
	b := quarantinedBundle(t)
	if _, err := Run(context.Background(), b, Options{Fixed: "no-such-engine"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// One bundle, replayed offline and served as a live task by the tile
// worker's own executor, walks one attempt sequence: replay keeps no
// bundle → flow.Config mapping of its own for a bundle field to be
// honoured by workers and ignored by.
func TestReplayWalksTheWorkerLadder(t *testing.T) {
	b := quarantinedBundle(t)
	rep, err := Run(context.Background(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reply := Runner()(context.Background(), &procpool.Task{Bundle: *b}, nil)
	if reply.Err != "" {
		t.Fatal(reply.Err)
	}
	if reply.Path != rep.Path || len(reply.Outcomes) != rep.Walked || rep.Walked != len(rep.Attempts) {
		t.Fatalf("worker: path %q, %d attempts; replay: path %q, %d walked, %d diffed",
			reply.Path, len(reply.Outcomes), rep.Path, rep.Walked, len(rep.Attempts))
	}
	for i, o := range reply.Outcomes {
		got := rep.Attempts[i].Replayed
		if o.Attempt != got.Index || o.Engine != got.Engine || o.Err != got.Err || o.Stalled != got.Stalled {
			t.Errorf("attempt %d: worker %+v, replay %+v", i, o, got)
		}
	}
}
