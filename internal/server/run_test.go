package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/testkit/faultfs"
)

// --- WriteShots contract ---

// The shot list is the product: WriteShots must report every way the
// bytes can fail to reach the platter — a missing directory, a full
// disk mid-write, a failed fsync — and write the ordered CSV otherwise,
// returning that order's beam travel in nm.
func TestWriteShotsDurableOrError(t *testing.T) {
	shots := []geom.Circle{{X: 10, Y: 10, R: 4}, {X: 90, Y: 90, R: 5}, {X: 12, Y: 11, R: 4}}
	dir := t.TempDir()
	good := filepath.Join(dir, "shots.csv")
	travel, err := WriteShots(nil, good, shots, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fracture.ReadShotsCSV(strings.NewReader(string(b)), 2)
	if err != nil || len(got) != len(shots) || got[1] != shots[2] {
		t.Fatalf("CSV not the beam-ordered list (neighbour of shot 0 second): %v, %+v", err, got)
	}
	if want := 2 * (math.Hypot(2, 1) + math.Hypot(78, 79)); travel != want {
		t.Fatalf("travel %v nm, want %v", travel, want)
	}
	for name, fsys := range map[string]iox.FS{
		"create": nil,
		"enospc": faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 8}),
		"fsync":  faultfs.NewFaultFS(nil, faultfs.Plan{FailSyncAt: 1}),
	} {
		path := filepath.Join(dir, name+".csv")
		if name == "create" {
			path = filepath.Join(dir, "no", "such", "dir", "shots.csv")
		}
		if _, err := WriteShots(fsys, path, shots, 2); err == nil {
			t.Errorf("%s fault: WriteShots reported success", name)
		}
	}
}

// --- WriteMask contract ---

// maskBytes is the file WriteMask promises, built from the definition
// with no rasterizer: header, then a 255 for every pixel within R of a
// shot's centre.
func maskBytes(n int, shots []geom.Circle) []byte {
	b := []byte(fmt.Sprintf("P5\n%d %d\n255\n", n, n))
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			px := byte(0)
			for _, c := range shots {
				dx, dy := float64(x)-c.X, float64(y)-c.Y
				if c.R > 0 && dx*dx+dy*dy <= c.R*c.R {
					px = 255
				}
			}
			b = append(b, px)
		}
	}
	return b
}

// The mask is a view of the shot list and WriteMask is its one writer:
// whatever the band height cuts through, the file is the union of the
// shots and the dense raster's bytes, and every way those bytes can fail to reach the platter is an
// error (the TestWriteShotsDurableOrError shape).
func TestWriteMaskEqualsFullRaster(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		n     int
		shots []geom.Circle
	}{
		"last band short":       {100, []geom.Circle{{X: 30, Y: 20, R: 9}, {X: 70, Y: 80, R: 12}, {X: 50, Y: 64, R: 3}}},
		"smaller than a band":   {40, []geom.Circle{{X: 20, Y: 20, R: 7.5}}},
		"circle in three bands": {200, []geom.Circle{{X: 100, Y: 100, R: 50}, {X: 10, Y: 190, R: 4}}},
		"clipped by every edge": {96, []geom.Circle{{X: 2, Y: 48, R: 8}, {X: 94, Y: 48, R: 8}, {X: 48, Y: 1, R: 8}, {X: 48, Y: 95, R: 8}, {X: -3, Y: -3, R: 10}}},
		"no shots":              {70, nil},
		"eight bands":           {512, []geom.Circle{{X: 256, Y: 256, R: 200}, {X: 40, Y: 470, R: 38}, {X: 500, Y: 63.5, R: 6}, {X: 130, Y: 128, R: 0.6}}},
	} {
		path := filepath.Join(dir, "m.pgm")
		if err := WriteMask(nil, path, tc.n, tc.shots); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := maskBytes(tc.n, tc.shots)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d-px mask is not the union of its shots", name, tc.n)
		}
		for i, v := range geom.RasterizeCircles(tc.n, tc.n, tc.shots).Data {
			if (v > 0.5) != (want[len(want)-tc.n*tc.n+i] == 255) {
				t.Fatalf("%s: dense raster differs from the mask file at pixel %d", name, i)
			}
		}
	}

	shots := []geom.Circle{{X: 64, Y: 64, R: 30}}
	for name, tc := range map[string]struct {
		n    int
		fsys iox.FS
	}{
		"create": {128, nil},
		"band":   {128, faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 10000})}, // the header and one 8 KiB band fit, the second band does not
		"header": {16, faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 8})},      // not even the 13-byte header fits
		"fsync":  {128, faultfs.NewFaultFS(nil, faultfs.Plan{FailSyncAt: 1})},
	} {
		path := filepath.Join(dir, name+".pgm")
		if name == "create" {
			path = filepath.Join(dir, "no", "such", "dir", "m.pgm")
		}
		if err := WriteMask(tc.fsys, path, tc.n, shots); err == nil {
			t.Errorf("%s fault: WriteMask reported success", name)
		}
	}
}

// WriteMask paints spans into a byte band; RasterizeCircles tests every
// pixel of every circle's box. Over 200 seeded shot sets — integer,
// half-integer and arbitrary centres and radii, shots hanging past the
// edges, radii at or below zero — the file is the dense raster's bytes.
func TestWriteMaskEqualsRasterizeCirclesOnRandomShots(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	path := filepath.Join(t.TempDir(), "m.pgm")
	coord := func(n int) float64 {
		v := float64(rng.Intn(n+40) - 20)
		switch rng.Intn(3) {
		case 1:
			v += 0.5
		case 2:
			v += rng.Float64()
		}
		return v
	}
	for set := 0; set < 200; set++ {
		n := rng.Intn(200) + 1
		shots := make([]geom.Circle, rng.Intn(12))
		for i := range shots {
			shots[i] = geom.Circle{X: coord(n), Y: coord(n), R: coord(60)/2 - 5}
		}
		if err := WriteMask(nil, path, n, shots); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(fmt.Sprintf("P5\n%d %d\n255\n", n, n))
		for _, v := range geom.RasterizeCircles(n, n, shots).Data {
			want = append(want, byte(255*v))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("set %d: %d-px mask of %d shots differs from RasterizeCircles", set, n, len(shots))
		}
	}
}

// A mask write fault fails the run, and by then the shot list — written
// first — is already whole on disk.
func TestRunReportsMaskFaultAfterDurableShots(t *testing.T) {
	spec, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	spec.Method = "circlerule"
	l, err := spec.ResolveLayout(testLayoutRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := RunOpts{MaskPath: filepath.Join(dir, "want.pgm"), ShotsPath: filepath.Join(dir, "want.csv")}
	if _, err := RunSpec(context.Background(), l, spec, want); err != nil {
		t.Fatal(err)
	}
	o := RunOpts{
		MaskPath:  filepath.Join(dir, "mask.pgm"),
		ShotsPath: filepath.Join(dir, "shots.csv"),
		FS:        faultfs.NewFaultFS(nil, faultfs.Plan{FailSyncAt: 1, PathSubstr: "mask.pgm"}),
	}
	if _, err := RunSpec(context.Background(), l, spec, o); err == nil {
		t.Fatal("Run reported success although the mask fsync failed")
	}
	compareFiles(t, o.ShotsPath, want.ShotsPath)
}

func BenchmarkWriteMask(b *testing.B) {
	for _, n := range []int{1024, 2048} {
		// One shot per 64-px cell, the density of a CircleRule run.
		var shots []geom.Circle
		for y := 32; y < n; y += 64 {
			for x := 32; x < n; x += 64 {
				shots = append(shots, geom.Circle{X: float64(x), Y: float64(y), R: 19})
			}
		}
		path := filepath.Join(b.TempDir(), "m.pgm")
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteMask(nil, path, n, shots); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- RunSpec error paths ---

func TestRunSpecRejectsUnknownEngines(t *testing.T) {
	root := testLayoutRoot(t)
	spec, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	l, err := spec.ResolveLayout(root)
	if err != nil {
		t.Fatal(err)
	}
	bad := *spec
	bad.Method = "no-such-engine"
	if _, err := RunSpec(context.Background(), l, &bad, RunOpts{}); err == nil {
		t.Fatal("RunSpec accepted an unknown method")
	}
	bad = *spec
	bad.Fallback = "no-such-engine"
	if _, err := RunSpec(context.Background(), l, &bad, RunOpts{}); err == nil {
		t.Fatal("RunSpec accepted an unknown fallback")
	}
}

// TestFlowConfigPhysicalWindowFloor: Validate can only bound the window
// in pixels; FlowConfig knows the pitch and refuses a window the optics
// cannot image (λ/NA = 142.96 nm), naming both — and a window one step
// above the floor runs.
func TestFlowConfigPhysicalWindowFloor(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		wantErr string
	}{
		{`{"case":10,"grid":2048,"tile_core":64,"tile_halo":32,"method":"circlerule"}`, "is 128 nm at 1 nm/px, below the λ/NA = 143.0 nm floor"},
		{`{"case":10,"grid":1024,"tile_core":16,"tile_halo":16,"method":"circlerule"}`, "is 96 nm at 2 nm/px, below the λ/NA = 143.0 nm floor"},
		{`{"case":10,"grid":2048,"tile_core":80,"tile_halo":32,"method":"circlerule"}`, ""},
	} {
		spec, err := parseSpecString(t, tc.spec)
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v (the pixel bounds admit it)", tc.spec, err)
		}
		l, err := spec.ResolveLayout("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSpec(context.Background(), l, spec, RunOpts{})
		switch {
		case tc.wantErr == "" && (err != nil || len(res.Shots) == 0):
			t.Errorf("%s: err %v, want a run with shots", tc.spec, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err %v, want one containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestRunSpecCanceledContextAborts: the mask is written once, after
// success. A canceled run returns no Result and an error, and leaves the
// mask path exactly as it found it — a complete mask from an earlier run
// stays byte for byte, and no file appears where there was none.
func TestRunSpecCanceledContextAborts(t *testing.T) {
	root := testLayoutRoot(t)
	spec, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	l, err := spec.ResolveLayout(root)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	earlier := []byte("P5\n1 1\n255\n\xff")
	dir := t.TempDir()
	kept, absent := filepath.Join(dir, "kept.pgm"), filepath.Join(dir, "absent.pgm")
	if err := os.WriteFile(kept, earlier, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, maskPath := range []string{kept, absent} {
		o := RunOpts{MaskPath: maskPath, ShotsPath: filepath.Join(dir, "shots.csv")}
		if res, err := RunSpec(canceled, l, spec, o); res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run: result %v, err %v; want no result and %v", res, err, context.Canceled)
		}
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, earlier) {
		t.Errorf("canceled run touched the mask an earlier run left: %q, %v", got, err)
	}
	for _, p := range []string{absent, filepath.Join(dir, "shots.csv")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("canceled run left %s behind (stat err %v)", filepath.Base(p), err)
		}
	}
}

// --- spec resolution ---

func TestResolveLayoutVariants(t *testing.T) {
	root := testLayoutRoot(t)
	spec, err := parseSpecString(t, `{"case":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := spec.ResolveLayout(root); err != nil || l == nil {
		t.Fatalf("case suite: %v", err)
	}
	spec, err = parseSpecString(t, `{"layout":"missing.glp"}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.ResolveLayout(root); err == nil {
		t.Fatal("resolved a nonexistent layout file")
	}
	if err := os.WriteFile(filepath.Join(root, "junk.gds"), []byte("not a gds"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = parseSpecString(t, `{"layout":"junk.gds"}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.ResolveLayout(root); err == nil {
		t.Fatal("resolved a malformed gds file")
	}
}

// --- manager construction and recovery errors ---

func TestNewManagerRequiresDataDir(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("NewManager accepted an empty DataDir")
	}
}

func TestNewManagerDataDirIsFile(t *testing.T) {
	f := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(ManagerConfig{DataDir: f}); err == nil {
		t.Fatal("NewManager accepted a plain file as DataDir")
	}
}

func TestNewManagerRejectsCorruptJobRecord(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := checkpoint.Open(filepath.Join(dataDir, "jobs.log"), jobsJournalHeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := NewManager(ManagerConfig{DataDir: dataDir}); err == nil {
		t.Fatal("NewManager accepted a corrupt job record")
	}
}

func TestNewManagerRejectsStateWithoutSpec(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := checkpoint.Open(filepath.Join(dataDir, "jobs.log"), jobsJournalHeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"id":"job-0000","state":"running"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := NewManager(ManagerConfig{DataDir: dataDir}); err == nil {
		t.Fatal("NewManager accepted a job with state records but no spec")
	}
}

// --- failed jobs over the API ---

// TestHTTPFailedJob drives a job into the failed state (the layout file
// disappears between submit-time validation and execution) and checks
// the stream, status, and artifact endpoints all report it.
func TestHTTPFailedJob(t *testing.T) {
	root := testLayoutRoot(t)
	m, ts := newTestService(t, root, 1, 8, false)
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	if m.QueueDepth() != 1 {
		t.Fatalf("queue depth %d after submit, want 1", m.QueueDepth())
	}
	if err := os.Remove(filepath.Join(root, "t.glp")); err != nil {
		t.Fatal(err)
	}
	m.Start()
	waitState(t, ts.URL, st.ID, JobFailed)
	if got := getStatus(t, ts.URL, st.ID); got.Error == "" {
		t.Fatal("failed job reports no error message")
	}
	for _, ep := range []string{"/mask", "/shots"} {
		r, err := http.Get(ts.URL + "/jobs/" + st.ID + ep)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusConflict {
			t.Fatalf("GET %s on failed job: %s, want 409", ep, r.Status)
		}
	}
	evs := streamEvents(t, ts.URL, st.ID, 0)
	last := evs[len(evs)-1]
	if last.State != string(JobFailed) || last.Error == "" {
		t.Fatalf("final event %+v, want failed with an error", last)
	}
}

// manyTileSpecJSON has 64 windows so a cancel or shutdown reliably
// lands between tile completions.
const manyTileSpecJSON = `{"layout":"t.glp","grid":512,"tile_core":64,"iters":2,"kopt":3}`

// waitTile blocks until the job announces a completed tile.
func waitTile(t *testing.T, m *Manager, id string) {
	t.Helper()
	sub, err := m.Subscribe(id, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(id, sub)
	deadline := time.After(120 * time.Second)
	for {
		evs, _ := sub.drain()
		for _, ev := range evs {
			if ev.Kind == "tile" {
				return
			}
			if ev.Kind == "state" && JobState(ev.State).terminal() {
				t.Fatalf("job went %s before any tile completed", ev.State)
			}
		}
		select {
		case <-sub.wait():
		case <-deadline:
			t.Fatal("no tile completed in time")
		}
	}
}

// TestManagerCancelRunningJob interrupts a job mid-run and checks the
// cancel wins over the run error, plus the unknown-ID error paths.
func TestManagerCancelRunningJob(t *testing.T) {
	root := testLayoutRoot(t)
	m, ts := newTestService(t, root, 1, 8, true)
	st, resp := postJob(t, ts.URL, manyTileSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitTile(t, m, st.ID)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, st.ID, JobCanceled)
	// Cancel of a terminal job is a no-op, not an error.
	if st2, err := m.Cancel(st.ID); err != nil || st2.State != JobCanceled {
		t.Fatalf("re-cancel: %v %v", st2, err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("cancel unknown: %v", err)
	}
	if _, err := m.Status("nope"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("status unknown: %v", err)
	}
	if _, err := m.Subscribe("nope", 0, 1); !errors.Is(err, ErrNoJob) {
		t.Fatalf("subscribe unknown: %v", err)
	}
	m.Unsubscribe("nope", nil) // harmless no-op
}

// TestManagerStopMidRunRequeues pins the shutdown contract: a job
// interrupted by Stop gets no terminal record, so the next manager
// finds it queued again, and every tile its flow.ckpt holds was fsynced
// before Stop returned.
func TestManagerStopMidRunRequeues(t *testing.T) {
	root := testLayoutRoot(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	rec := faultfs.NewRecorder(nil, filepath.Dir(dataDir))
	m1, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root, FS: rec})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseSpecString(t, manyTileSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitTile(t, m1, st.ID)
	m1.Stop()
	ckpt := filepath.Join("data", "jobs", st.ID, "flow.ckpt")
	lastWrite, lastSync := -1, -1
	for i, op := range rec.Ops() {
		switch {
		case op.Path != ckpt:
		case op.Kind == faultfs.OpWrite:
			lastWrite = i
		case op.Kind == faultfs.OpSync:
			lastSync = i
		}
	}
	if lastWrite < 0 || lastSync < lastWrite {
		t.Fatalf("flow.ckpt: last append at op %d, last fsync at op %d; want every record fsynced by Stop", lastWrite, lastSync)
	}

	m2, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	got, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobQueued {
		t.Fatalf("interrupted job recovered as %s, want queued", got.State)
	}
	if m2.QueueDepth() != 1 {
		t.Fatalf("queue depth %d after recovery, want 1", m2.QueueDepth())
	}
}

// TestNewManagerRejectsForeignEventJournal: recovery must refuse an
// event journal bound to a different job.
func TestNewManagerRejectsForeignEventJournal(t *testing.T) {
	root := testLayoutRoot(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	m1, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseSpecString(t, fastSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m1.Stop()
	// Swap in a journal written under another job's identity.
	path := filepath.Join(dataDir, "jobs", st.ID, "events.log")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	h, err := newHubFS(nil, path, "job-9999", spec)
	if err != nil {
		t.Fatal(err)
	}
	h.publish(JobEvent{Kind: "state", State: "queued"})
	h.close()
	if _, err := NewManager(ManagerConfig{DataDir: dataDir, LayoutRoot: root}); err == nil {
		t.Fatal("recovery accepted an event journal bound to a different job")
	}
}
