package opt

import (
	"context"
	"testing"
	"time"
)

func TestBeatNoReceiver(t *testing.T) {
	// Must be a silent no-op on nil and receiver-less contexts.
	Beat(nil, 0, 1.5) //nolint:staticcheck // nil context is the single-window path
	Beat(context.Background(), 0, 1.5)
	if ProgressFrom(nil) != nil || ProgressFrom(context.Background()) != nil {
		t.Fatal("ProgressFrom invented a receiver")
	}
}

func TestBeatDelivery(t *testing.T) {
	var gotIter int
	var gotLoss float64
	var gotAt time.Time
	ctx := WithProgress(context.Background(), func(iter int, loss float64, at time.Time) {
		gotIter, gotLoss, gotAt = iter, loss, at
	})
	before := time.Now()
	Beat(ctx, 7, 3.25)
	if gotIter != 7 || gotLoss != 3.25 {
		t.Fatalf("heartbeat = (%d, %g)", gotIter, gotLoss)
	}
	if gotAt.Before(before) || time.Since(gotAt) > time.Minute {
		t.Fatalf("heartbeat stamp %v not monotonic-recent", gotAt)
	}
}
