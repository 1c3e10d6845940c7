package flow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/geom"
	"cfaopc/internal/layout"
	"cfaopc/internal/netpool"
	"cfaopc/internal/wcache"
)

// configFingerprintV1 and fingerprintV1 reproduce, byte for byte, what a
// binary built before the numerics version existed wrote into cache
// keys, journal headers and handshakes. They are the "old artifacts" of
// the tests below and must never be updated.
func configFingerprintV1(cfg Config, dxNM float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "grid=%d core=%d halo=%d kopt=%d retries=%d rmin=%g rmax=%g dx=%g\n",
		cfg.GridN, cfg.CorePx, cfg.HaloPx, cfg.KOpt, cfg.TileRetries, cfg.RMinPx, cfg.RMaxPx, dxNM)
	fmt.Fprintf(h, "optics=%+v\n", cfg.Optics)
	fmt.Fprintf(h, "engines=%+v\n", cfg.Engines)
	return fmt.Sprintf("cfaopc-cfg-v1 %016x", h.Sum64())
}

func fingerprintV1(l *layout.Layout, cfg Config) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%s\n", configFingerprintV1(cfg, float64(l.TileNM)/float64(cfg.GridN)))
	fmt.Fprint(h, "adaptive=false merge=0 split=0\n")
	fmt.Fprintf(h, "layout=%s tile=%d\n", l.Name, l.TileNM)
	for _, r := range l.Rects {
		fmt.Fprintf(h, "%d,%d,%d,%d\n", r.X, r.Y, r.W, r.H)
	}
	return []byte(fmt.Sprintf("cfaopc-flow-v4 %016x", h.Sum64()))
}

// The fingerprint of a fixed config is pinned: it prefixes every
// persisted cache key, so a change here — a new hashed knob, a numerics
// bump — invalidates every disk cache and checkpoint in the field and
// must be made on purpose.
func TestConfigFingerprintPin(t *testing.T) {
	cfg := cacheConfig()
	got := configFingerprint(cfg, 4)
	const want = "cfaopc-cfg-v2 bfc62a7f76a09ceb"
	if got != want {
		t.Fatalf("config fingerprint = %q, want %q\n"+
			"If this is intentional (numericsVersion bump, new knob), update the pin: persisted caches and journals are invalid.", got, want)
	}
	if v1 := configFingerprintV1(cfg, 4); v1 == got || !strings.HasPrefix(v1, "cfaopc-cfg-v1 ") {
		t.Fatalf("v1 fingerprint %q does not differ from %q", v1, got)
	}
}

// A disk cache directory written by v1 arithmetic holds entries for the
// very windows this run computes. They must be plain misses — not hits
// (old-FFT shots would mix with new-FFT ones), not BadDisk (nothing is
// corrupt) — and the run's output must equal an uncached run's.
func TestNumericsVersionStaleCacheEntryIsMiss(t *testing.T) {
	l := arrayLayout()
	cfg := cacheConfig()
	cfg.TileWorkers = 1
	ref, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every window of the array shares one key; rebuild tile 0's under
	// both prefixes the way runTile does.
	dx := float64(l.TileNM) / float64(cfg.GridN)
	env := &runEnv{cfg: cfg, ix: layout.NewWindowIndex(l, cfg.GridN)}
	j := planTiles(cfg)[0]
	target, _ := env.ix.Window(j.cx-cfg.HaloPx, j.cy-cfg.HaloPx, cfg.window(), cfg.window())
	env.keyPrefix = configFingerprintV1(cfg, dx)
	staleKey := env.windowKey(j, target)
	env.keyPrefix = configFingerprint(cfg, dx)
	liveKey := env.windowKey(j, target)

	dir := t.TempDir()
	old := mustCache(t, wcache.Config{Dir: dir})
	// A result no current engine produces, so serving it would show.
	old.Put(staleKey, &wcache.Entry{Shots: []geom.Circle{{X: 1, Y: 1, R: 3}}, Path: PathPrimary, Attempts: 1})
	if _, err := os.Stat(filepath.Join(dir, string(staleKey)+".wce")); err != nil {
		t.Fatalf("the v1 entry did not reach the disk tier: %v", err)
	}

	cache := mustCache(t, wcache.Config{Dir: dir}) // a fresh process over the old directory
	cfg.Cache = cache
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileStats[0].CacheKey != string(liveKey) {
		t.Fatalf("tile 0 key %s, rebuilt %s: the test no longer mirrors runTile", res.TileStats[0].CacheKey, liveKey)
	}
	st := cache.Stats()
	if st.DiskHits != 0 || st.BadDisk != 0 || st.DiskErrs != 0 {
		t.Fatalf("stale entry touched: %+v", st)
	}
	if res.CacheMisses != 1 || res.CacheHits != arrayCells-1 {
		t.Fatalf("hits=%d misses=%d, want the cold split %d/1", res.CacheHits, res.CacheMisses, arrayCells-1)
	}
	sameResult(t, res, ref)
	if _, ok := cache.Get(staleKey); !ok {
		t.Fatal("the v1 entry is no longer readable under its own key: it was damaged, not bypassed")
	}
}

// A journal whose header was written under v1 must fail the header
// check rather than resume old-arithmetic tiles into a new run.
func TestNumericsVersionOldJournalFailsHeaderCheck(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.Optimize = ruleFallback()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	journal, _, err := checkpoint.OpenFS(nil, cfg.CheckpointPath, fingerprintV1(l, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(l, cfg); !errors.Is(err, checkpoint.ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
}

// A remote worker pinned to the v1 fingerprint refuses this
// coordinator at the handshake; the run degrades to the local ladder
// and no tile claims the host.
func TestNumericsVersionSkewedWorkerRefused(t *testing.T) {
	l := bigLayout()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := netConfig(t, ln.Addr().String())
	cfg.linkCrashLimit = 2
	dx := float64(l.TileNM) / float64(cfg.GridN)
	srv := &netpool.Server{Pin: configFingerprintV1(cfg, dx), Runner: testRunner}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		<-served
	}()

	_, err = netpool.Dialer{Fingerprint: configFingerprint(cfg, dx)}.Connect(context.Background(), ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("handshake err = %v, want a fingerprint-mismatch refusal", err)
	}

	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	everyTileDone(t, res)
	if res.LinkBroken != 1 {
		t.Fatalf("%d hosts broken, want the one skewed host", res.LinkBroken)
	}
	for _, st := range res.TileStats {
		if st.Host != "" {
			t.Errorf("tile %d was computed by the skewed host %s", st.Index, st.Host)
		}
	}
}
