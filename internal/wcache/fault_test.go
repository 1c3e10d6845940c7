package wcache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/testkit/faultfs"
)

func faultEntry(n int) *Entry {
	e := &Entry{Path: "primary", Attempts: 1, Iters: 8, LastLoss: 0.25}
	for i := 0; i < n; i++ {
		e.Shots = append(e.Shots, geom.Circle{X: float64(i), Y: float64(i * 2), R: 3})
	}
	return e
}

// TestPutNeverFailsUnderDiskFaults: every fault kind on the disk tier
// degrades the entry to the memory tier — Put has no error to return,
// Get still hits from memory, and the counters record the degradation.
func TestPutNeverFailsUnderDiskFaults(t *testing.T) {
	for _, kind := range []string{"enospc", "eio-sync", "torn", "rename"} {
		t.Run(kind, func(t *testing.T) {
			plan, err := faultfs.PlanForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			// Fire on the very first faultable op so a single Put trips it.
			plan.WriteBudget = min64(plan.WriteBudget, 8)
			if plan.FailSyncAt > 0 {
				plan.FailSyncAt = 1
			}
			if plan.TornWriteAt > 0 {
				plan.TornWriteAt = 1
			}
			dir := t.TempDir()
			ff := faultfs.NewFaultFS(nil, plan)
			c, err := New(Config{Dir: dir, FS: ff})
			if err != nil {
				t.Fatal(err)
			}
			k := Key("deadbeef")
			c.Put(k, faultEntry(4))
			got, ok := c.Get(k)
			if !ok || len(got.Shots) != 4 {
				t.Fatalf("memory tier lost the entry under %s", kind)
			}
			st := c.Stats()
			if st.DiskErrs != 1 || st.LastDiskErr == "" {
				t.Fatalf("degradation not counted under %s: %+v", kind, st)
			}
			// The failed write must not leave a readable half-entry: a
			// fresh cache over the same dir treats the key as a miss or a
			// fully valid hit, never garbage.
			c2, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if e2, ok := c2.Get(k); ok {
				if err := e2.Validate(); err != nil {
					t.Fatalf("disk served an invalid entry under %s: %v", kind, err)
				}
			}
		})
	}
}

func min64(a, b int64) int64 {
	if a == 0 || b < a {
		return b
	}
	return a
}

// TestDiskEntrySurvivesRename confirms the atomic-write path leaves no
// temp litter and the renamed entry round-trips.
func TestDiskEntryAtomicWriteRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := Key("cafe")
	c.Put(k, faultEntry(2))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if filepath.Ext(de.Name()) == ".tmp" {
			t.Fatalf("temp litter %s", de.Name())
		}
	}
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Get(k); !ok || len(e.Shots) != 2 {
		t.Fatal("disk entry did not round-trip")
	}
}

// TestStorageFaultMatrix drives a realistic Put/Get mix under the CI
// storage-fault matrix. Invariant: no operation fails (the disk tier is
// best-effort by contract), the memory tier stays authoritative, and
// any disk file a later cache reads back is fully valid.
func TestStorageFaultMatrix(t *testing.T) {
	kind := os.Getenv("IOFAULT")
	if kind == "" {
		t.Skip("IOFAULT not set; run via the storage-fault matrix")
	}
	plan, err := faultfs.PlanForKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, plan)
	c, err := New(Config{Dir: dir, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 20)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("%04x", i))
		c.Put(keys[i], faultEntry(i%5+1))
	}
	for i, k := range keys {
		e, ok := c.Get(k)
		if !ok {
			t.Fatalf("memory tier lost key %d under %s", i, kind)
		}
		if len(e.Shots) != i%5+1 {
			t.Fatalf("entry %d corrupted under %s", i, kind)
		}
	}
	if ff.Stats().Injected == 0 {
		t.Fatalf("plan %s never fired; matrix is not exercising faults", kind)
	}
	// Cold cache over the same dir: disk survivors must be valid, torn
	// files must degrade to misses (and be deleted), never wrong data.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if e, ok := c2.Get(k); ok {
			if len(e.Shots) != i%5+1 {
				t.Fatalf("disk tier served wrong entry %d under %s", i, kind)
			}
		}
	}
	t.Logf("%s: %+v cold-stats %+v", kind, c.Stats(), c2.Stats())
}
