package replay

import (
	"context"
	"path/filepath"
	"testing"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/procpool"
	"cfaopc/internal/procworker"
	"cfaopc/internal/quarantine"
)

// quarantinedBundle runs a small tiled flow with an always-failing tile
// and returns the bundle the flow wrote for it. Lives here (not in
// package flow) because the full loop — flow writes, engine rebuilds,
// replay re-runs — crosses an import cycle flow's own tests cannot.
func quarantinedBundle(t *testing.T) *quarantine.Bundle {
	t.Helper()
	l := &layout.Layout{
		Name:   "quad",
		TileNM: 1024,
		Rects: []layout.Rect{
			{X: 150, Y: 160, W: 80, H: 220},
			{X: 660, Y: 150, W: 80, H: 220},
			{X: 150, Y: 650, W: 220, H: 80},
			{X: 660, Y: 660, W: 80, H: 220},
		},
	}
	opts := engine.Options{Iters: 8, Gamma: 3, SampleNM: 32}
	primary, err := engine.For("circlerule", opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flow.Config{
		GridN:         256,
		CorePx:        128,
		HaloPx:        32,
		Optics:        optics.Default(),
		KOpt:          4,
		Optimize:      primary,
		Fallback:      primary,
		TileRetries:   1,
		RMinPx:        1,
		RMaxPx:        40,
		QuarantineDir: filepath.Join(t.TempDir(), "quarantine"),
		Engines:       engine.Meta("circlerule", "circlerule", opts),
		Faults: flow.FaultPlan{
			3: {{Panic: true}, {Panic: true}, {Panic: true}}, // primary ×2 + fallback
		},
	}
	res, err := flow.Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 1 || res.TileStats[3].Bundle == "" {
		t.Fatalf("expected tile 3 quarantined: %+v", res.TileStats[3])
	}
	b, err := quarantine.Load(res.TileStats[3].Bundle)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// Without the fault script, the captured tile is healthy — the replay
// must report "not reproduced" rather than inventing a failure.
func TestReplayNoFaultsSucceeds(t *testing.T) {
	b := quarantinedBundle(t)
	rep, err := Run(context.Background(), b, Options{NoFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reproduced || rep.PathMatch {
		t.Fatalf("fault-free replay still failed on path %q", rep.Path)
	}
	if rep.Path != flow.PathPrimary || len(rep.Shots) == 0 {
		t.Fatalf("fault-free replay: path %q, %d shots", rep.Path, len(rep.Shots))
	}
}

// The fix-verification loop: swapping in a candidate primary (with the
// faults disabled, modelling a repaired engine) must report Fixed.
func TestReplayFixedEngine(t *testing.T) {
	b := quarantinedBundle(t)
	rep, err := Run(context.Background(), b, Options{Fixed: "circlerule", NoFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed || rep.Reproduced {
		t.Fatalf("report: fixed=%v reproduced=%v path=%q", rep.Fixed, rep.Reproduced, rep.Path)
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
	reply := procworker.Runner()(context.Background(), &procpool.Task{Bundle: *b}, nil)
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
