package quarantine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
)

func sampleBundle() *Bundle {
	target := make([]float64, 16*16)
	target[5*16+5] = 1
	o := optics.Default()
	o.TileNM = 256
	return &Bundle{
		FormatVersion: FormatVersion,
		Fingerprint:   "cfaopc-flow-v2 0123456789abcdef",
		LayoutName:    "quad",
		TileNM:        1024,
		GridN:         64,
		CorePx:        8,
		HaloPx:        4,
		KOpt:          4,
		TileRetries:   1,
		TileTimeout:   2 * time.Second,
		StallTimeout:  200 * time.Millisecond,
		RMinPx:        1,
		RMaxPx:        40,
		Optics:        o,
		Engines:       EngineMeta{Primary: "circleopt", Fallback: "circlerule", Iters: 8, Gamma: 3, SampleNM: 32},
		Tile:          Tile{Index: 3, CX: 8, CY: 8, OriginX: 4, OriginY: 4, WindowPx: 16},
		TargetW:       16,
		TargetH:       16,
		Target:        target,
		Rects:         []layout.Rect{{X: 100, Y: 120, W: 40, H: 60}},
		Faults:        []Fault{{NaN: true}, {Panic: true}, {Panic: true}},
		Attempts: []Attempt{
			{Index: 0, Engine: "primary", Err: "invalid output: mask has NaN/Inf pixels", Iters: 3, LastLoss: 12.5},
			{Index: 1, Engine: "primary", Err: "panic: injected fault: tile 3 attempt 1"},
			{Index: 2, Engine: "fallback", Err: "panic: injected fault: tile 3 attempt 2"},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := sampleBundle()
	path, err := SaveFS(nil, dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "tile0003.qrb" {
		t.Fatalf("bundle path %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tile != b.Tile || got.Engines != b.Engines || got.Fingerprint != b.Fingerprint {
		t.Fatalf("round trip mutated identity: %+v", got)
	}
	if len(got.Attempts) != 3 || got.Attempts[0].Err != b.Attempts[0].Err || !bytesEqFloat(got.Target, b.Target) {
		t.Fatalf("round trip mutated payload")
	}
	if len(got.Faults) != 3 || !got.Faults[1].Panic {
		t.Fatalf("fault script lost: %+v", got.Faults)
	}

	// The JSON sidecar exists, is valid, and elides the raster.
	side, err := os.ReadFile(strings.TrimSuffix(path, ".qrb") + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(side, &m); err != nil {
		t.Fatalf("sidecar not JSON: %v", err)
	}
	if m["Target"] != nil {
		t.Fatal("sidecar embeds the raster")
	}
	if m["TargetOccupiedPx"] != float64(1) {
		t.Fatalf("sidecar occupancy = %v", m["TargetOccupiedPx"])
	}
	if m["Fingerprint"] != b.Fingerprint {
		t.Fatalf("sidecar fingerprint = %v", m["Fingerprint"])
	}
}

func TestSaveDeterministicOverwrite(t *testing.T) {
	dir := t.TempDir()
	b := sampleBundle()
	p1, err := SaveFS(nil, dir, b)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SaveFS(nil, dir, b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || !bytes.Equal(first, second) {
		t.Fatal("re-saving the same bundle is not byte-deterministic")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, err := SaveFS(nil, dir, sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0xff
	bad := filepath.Join(dir, "flip.qrb")
	os.WriteFile(bad, flip, 0o644)
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bit flip: err = %v, want CRC failure", err)
	}

	torn := filepath.Join(dir, "torn.qrb")
	os.WriteFile(torn, data[:len(data)-7], 0o644)
	if _, err := Load(torn); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn: err = %v, want torn", err)
	}

	junk := filepath.Join(dir, "junk.qrb")
	os.WriteFile(junk, []byte("definitely not a bundle"), 0o644)
	if _, err := Load(junk); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("junk: err = %v, want bad magic", err)
	}
}

func TestValidate(t *testing.T) {
	b := sampleBundle()
	b.FormatVersion = 99
	if err := b.Validate(); err == nil {
		t.Fatal("future format version accepted")
	}
	b = sampleBundle()
	b.Target = b.Target[:10]
	if err := b.Validate(); err == nil {
		t.Fatal("short raster accepted")
	}
	b = sampleBundle()
	b.Attempts = nil
	if err := b.Validate(); err == nil {
		t.Fatal("attempt-less bundle accepted")
	}
	b = sampleBundle()
	if _, err := SaveFS(nil, t.TempDir(), b); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
}

func bytesEqFloat(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSaveErrors(t *testing.T) {
	b := sampleBundle()
	b.Attempts = nil
	if _, err := SaveFS(nil, t.TempDir(), b); err == nil {
		t.Fatal("invalid bundle saved")
	}

	// A regular file where the quarantine dir should go: MkdirAll (or
	// the writes beneath it) must fail rather than clobber the file.
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFS(nil, blocked, sampleBundle()); err == nil {
		t.Fatal("saved under a regular file")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.qrb")); err == nil {
		t.Fatal("missing bundle loaded")
	}

	// Header that declares a payload beyond the size cap: rejected
	// before any allocation or CRC work.
	huge := append([]byte(nil), magic...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	p := filepath.Join(t.TempDir(), "huge.qrb")
	os.WriteFile(p, huge, 0o644)
	if _, err := Load(p); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized declaration: err = %v", err)
	}

	// A structurally valid frame whose gob payload decodes to a bundle
	// violating its own invariants (window/raster mismatch).
	b := sampleBundle()
	b.Tile.WindowPx = 99
	path := filepath.Join(t.TempDir(), "skew")
	payload, err := iox.EncodeGob(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := iox.WriteSealed(nil, path+".qrb", magic, payload, MaxBundleBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path + ".qrb"); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("invariant-violating bundle: err = %v", err)
	}
}

// TestLoadNeverReadsPastTheCap: MaxBundleBytes bounds what a corrupt
// bundle can make Load hold, so it must bite before the read — for a
// file far larger than the cap and for a header declaring a length over
// it. (The parent read the whole file, then compared lengths.) Sparse
// files: nothing is written.
func TestLoadNeverReadsPastTheCap(t *testing.T) {
	good, err := os.ReadFile(mustSave(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		head []byte
		want string
	}{
		"oversized file":            {good, "after the frame"},
		"oversized declared length": {append(append([]byte(nil), magic...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), "limit"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "big.qrb")
			if err := os.WriteFile(path, tc.head, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, MaxBundleBytes+4096); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(path)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejecting the bundle allocated %d bytes; the cap is there so it allocates none of the file", n)
			}
		})
	}
}

// mustSave writes the sample bundle and returns its .qrb path.
func mustSave(t *testing.T) string {
	t.Helper()
	path, err := SaveFS(nil, t.TempDir(), sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// seamFS is a filesystem seam that sees every Open.
type seamFS struct {
	iox.OSFS
	opened []string
}

func (s *seamFS) Open(path string) (iox.File, error) {
	s.opened = append(s.opened, path)
	return s.OSFS.Open(path)
}

// TestLoadFSReadsThroughTheSeam: LoadFS resolves the bundle in the
// filesystem SaveFS wrote it to, not behind its back in the os package.
func TestLoadFSReadsThroughTheSeam(t *testing.T) {
	seam := &seamFS{}
	path, err := SaveFS(seam, t.TempDir(), sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadFS(seam, path)
	if err != nil || b.Tile.Index != sampleBundle().Tile.Index {
		t.Fatalf("LoadFS = %+v, %v", b, err)
	}
	if len(seam.opened) != 1 || seam.opened[0] != path {
		t.Fatalf("seam saw opens %q, want exactly %q", seam.opened, path)
	}
}
