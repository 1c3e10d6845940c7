package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cfaopc/internal/iox"
)

// gateFS parks every file Sync while gated: the call announces itself on
// entered, then waits for a verdict — nil runs the real Sync, an error is
// returned in its place. Ungated it only counts.
type gateFS struct {
	iox.FS
	gated   atomic.Bool
	syncs   atomic.Int64
	entered chan struct{}
	verdict chan error
}

func newGateFS() *gateFS {
	return &gateFS{FS: iox.OSFS{}, entered: make(chan struct{}), verdict: make(chan error)}
}

func (g *gateFS) OpenFile(path string, flag int, perm os.FileMode) (iox.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

// parked waits for a Sync to reach the gate; a committer that never
// syncs fails the test here, not at the suite's timeout.
func (g *gateFS) parked(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no Sync reached the gate")
	}
}

type gateFile struct {
	iox.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.syncs.Add(1)
	if f.g.gated.Load() {
		f.g.entered <- struct{}{}
		if err := <-f.g.verdict; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// within fails the test if f has not returned after five seconds — the
// shape of "this call must not wait on the parked fsync".
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a parked Sync", what)
	}
}

// TestSyncDoesNotHoldTheJournalLock: while an fsync is parked in the
// device, Append, Size and Err all return — an appender overlaps a sync,
// which is what lets a group committer batch — and the coverage rule
// holds: the record appended during the Sync is on disk but was promised
// by nobody. A sync error still poisons, and is never retried on the fd.
func TestSyncDoesNotHoldTheJournalLock(t *testing.T) {
	g := newGateFS()
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, _, err := OpenFS(g, path, []byte("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("r0")); err != nil {
		t.Fatal(err)
	}
	g.gated.Store(true)
	syncErr := make(chan error, 1)
	go func() { syncErr <- j.Sync() }()
	g.parked(t)

	before := j.Size()
	within(t, "Append", func() {
		if err := j.Append([]byte("r1")); err != nil {
			t.Errorf("Append beside a Sync: %v", err)
		}
	})
	within(t, "Size", func() {
		if got := j.Size(); got <= before {
			t.Errorf("Size %d after an append at %d", got, before)
		}
	})
	within(t, "Err", func() {
		if err := j.Err(); err != nil {
			t.Errorf("Err beside a healthy Sync: %v", err)
		}
	})
	g.verdict <- nil
	if err := <-syncErr; err != nil {
		t.Fatalf("released Sync: %v", err)
	}

	go func() { syncErr <- j.Sync() }()
	g.parked(t)
	g.verdict <- syscall.EIO
	if err := <-syncErr; !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed Sync returned %v, want EIO", err)
	}
	if err := j.Err(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("journal not poisoned by the failed Sync: %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync after a failed Sync: %v, want ErrPoisoned", err)
	}
	if err := j.Append([]byte("r2")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after a failed Sync: %v, want ErrPoisoned", err)
	}
	if got := g.syncs.Load(); got != 2 {
		t.Fatalf("%d fsyncs reached the fd, want 2: a failed fsync is never retried", got)
	}
}

// BenchmarkJournalAppendSync times one journal on the real filesystem
// at 1, 8 and 64 appends per Sync (1 is the serial append+sync pair a
// per-event commit pays): ns/record is what a record costs once a
// committer amortizes the fsync over its batch.
func BenchmarkJournalAppendSync(b *testing.B) {
	payload := make([]byte, 64)
	for _, per := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(per), func(b *testing.B) {
			j, _, err := Open(filepath.Join(b.TempDir(), "j.ckpt"), []byte("h"))
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < per; k++ {
					if err := j.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := j.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/record")
		})
	}
}
