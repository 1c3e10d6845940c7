package optics_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/procworker"
)

// lazyRun is a two-lane tiled run of suite case 4 (four 96-px windows)
// with primary engine method and, unless empty, fallback.
func lazyRun(t *testing.T, method, fallback string) flow.Config {
	t.Helper()
	opts := engine.Options{Iters: 2, Gamma: 3, SampleNM: 32}
	meta := engine.Meta(method, fallback, opts)
	primary, fb, err := engine.FromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	return flow.Config{
		GridN: 128, CorePx: 64, HaloPx: 16,
		Optics: optics.Default(), KOpt: 5, TileWorkers: 2,
		Optimize: primary, Fallback: fb, Engines: meta,
	}
}

// countDecompositions makes every decomposition from a cold kernel cache
// count into the returned counter, until the test ends.
func countDecompositions(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	t.Cleanup(optics.SetComputeKernels(func(cfg optics.Config, defocus bool) (*optics.KernelSet, error) {
		n.Add(1)
		return optics.ComputeKernels(cfg, defocus)
	}))
	return &n
}

func runShots(t *testing.T, cfg flow.Config) *flow.Result {
	t.Helper()
	res, err := flow.RunContext(context.Background(), layout.SuiteCase(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shots) == 0 {
		t.Fatal("run produced no shots")
	}
	return res
}

// Kernels are fetched by the first pass that reads them: CircleRule reads
// none, so a rule run decomposes nothing — in its lanes, and through a
// remote worker and the coordinator's breaker fallback alike — while a
// CircleOpt run on two lanes decomposes each set of its one window once.
func TestKernelsAreFetchedByTheFirstPassThatReadsThem(t *testing.T) {
	t.Run("circlerule in process", func(t *testing.T) {
		n := countDecompositions(t)
		runShots(t, lazyRun(t, "circlerule", ""))
		if got := n.Load(); got != 0 {
			t.Fatalf("%d decompositions, want 0", got)
		}
	})
	t.Run("circlerule remote", func(t *testing.T) {
		n := countDecompositions(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- procworker.Listen(ln, "", time.Second) }()
		defer func() {
			ln.Close()
			if err := <-served; err != nil {
				t.Errorf("Listen returned %v on listener close", err)
			}
		}()
		cfg := lazyRun(t, "circlerule", "")
		cfg.RemoteHosts = []string{ln.Addr().String()}
		res := runShots(t, cfg)
		for _, st := range res.TileStats {
			if st.Occupied && st.Host == "" {
				t.Errorf("tile %d was computed in-process", st.Index)
			}
		}
		if got := n.Load(); got != 0 {
			t.Fatalf("%d decompositions, want 0", got)
		}
	})
	t.Run("circleopt in process", func(t *testing.T) {
		n := countDecompositions(t)
		runShots(t, lazyRun(t, "circleopt", ""))
		if got := n.Load(); got != 2 {
			t.Fatalf("%d decompositions, want 2 (one focus, one defocus)", got)
		}
	})
}

// A fetch that fails inside a pass is loud: the CircleOpt attempt fails
// with the decomposition's error, the CircleRule fallback, which reads
// no kernels, finishes every tile, and the run completes.
func TestFailedFetchFailsTheAttempt(t *testing.T) {
	t.Cleanup(optics.SetComputeKernels(func(optics.Config, bool) (*optics.KernelSet, error) {
		return nil, errors.New("optics: injected decomposition failure")
	}))
	res := runShots(t, lazyRun(t, "circleopt", "circlerule"))
	for _, st := range res.TileStats {
		if !st.Occupied {
			continue
		}
		if st.Path != flow.PathFallback || !strings.Contains(st.Failure, "injected decomposition failure") {
			t.Errorf("tile %d: path %q, failure %q; want the fallback after the fetch's error", st.Index, st.Path, st.Failure)
		}
	}
}
