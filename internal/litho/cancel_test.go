package litho

import (
	"context"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// TestCooperativeCancel pins the Ctx contract: with a canceled context a
// forward/adjoint pass returns (incomplete) without panicking, and with
// Ctx nil or live the results are exactly the uncancelled ones.
func TestCooperativeCancel(t *testing.T) {
	cfg := optics.Default()
	cfg.TileNM = 512
	sim, err := New(cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	target := grid.NewReal(128, 128)
	mask := grid.NewReal(128, 128)
	for y := 50; y < 78; y++ {
		for x := 50; x < 78; x++ {
			mask.Set(x, y, 1)
			target.Set(x, y, 1)
		}
	}

	ref := keep(sim.LossGrad(mask, target, 1, 1))

	// A live context must not perturb anything.
	sim.Ctx = context.Background()
	live := sim.LossGrad(mask, target, 1, 1)
	if live.Loss != ref.Loss || live.GradM.SqDiff(ref.GradM) != 0 {
		t.Fatal("live context changed the result")
	}

	// A canceled context abandons the pass: no panic, no NaNs required
	// of the caller — just an output it must discard after checking
	// Ctx.Err(), which is what flow.attemptTile does.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim.Ctx = ctx
	got := sim.LossGrad(mask, target, 1, 1)
	if got == nil || got.GradM == nil {
		t.Fatal("canceled pass returned nil")
	}
	if sim.Ctx.Err() == nil {
		t.Fatal("context error lost")
	}
	// The canceled pass ran zero kernels, so its aerial intensity is
	// all-zero and the "printed" sigmoid sits at σ(-θ·I_th) everywhere —
	// the loss must differ from the completed pass (sanity that the
	// early-out actually fired).
	if got.Loss == ref.Loss {
		t.Fatal("canceled pass produced the completed result")
	}

	// Clearing Ctx restores normal operation on the same simulator.
	sim.Ctx = nil
	again := sim.LossGrad(mask, target, 1, 1)
	if again.Loss != ref.Loss || again.GradM.SqDiff(ref.GradM) != 0 {
		t.Fatal("simulator did not recover after cancellation")
	}
}
