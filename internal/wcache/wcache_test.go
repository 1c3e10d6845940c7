package wcache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
)

func testEntry(n int) *Entry {
	e := &Entry{Path: "primary", Attempts: 1, Iters: 7, LastLoss: 0.25}
	for i := 0; i < n; i++ {
		e.Shots = append(e.Shots, geom.Circle{X: float64(i) + 0.5, Y: float64(2 * i), R: 1.5})
	}
	return e
}

func key(s string) Key {
	return WindowKey("test-prefix", WindowDesc{W: 4, H: 4, Raster: make([]float64, 16),
		Spans: []Span{{0, 1, 0, 1}}, CoreX: 1, CoreY: 1, CoreW: 2, CoreH: 2}) + Key(s)
}

func TestMemoryHitMissAndStats(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("a"), testEntry(3))
	e, ok := c.Get(key("a"))
	if !ok || len(e.Shots) != 3 {
		t.Fatalf("expected hit with 3 shots, got ok=%v e=%+v", ok, e)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 || s.Bytes <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("a"), testEntry(1))
	c.Put(key("b"), testEntry(1))
	if _, ok := c.Get(key("a")); !ok { // refresh a so b is LRU
		t.Fatal("a missing")
	}
	c.Put(key("c"), testEntry(1))
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get(key("c")); !ok {
		t.Fatal("c should be resident")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	small := testEntry(1)
	budget := 3 * small.bytes() // fits three small entries, not a big one plus two
	c, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("a"), testEntry(1))
	c.Put(key("b"), testEntry(1))
	c.Put(key("big"), testEntry(500))
	// The oversized entry stays (never evict the only/newest down to zero
	// below one entry), everything older goes.
	if _, ok := c.Get(key("big")); !ok {
		t.Fatal("newest entry must be resident")
	}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a should have been evicted by the byte budget")
	}
	// Replacing a key in place adjusts the byte account instead of leaking.
	c2, _ := New(Config{})
	c2.Put(key("x"), testEntry(10))
	b1 := c2.Stats().Bytes
	c2.Put(key("x"), testEntry(2))
	if b2 := c2.Stats().Bytes; b2 >= b1 || c2.Stats().Entries != 1 {
		t.Fatalf("in-place update bytes %d -> %d entries %d", b1, b2, c2.Stats().Entries)
	}
}

func TestDiskRoundTripAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry(5)
	c1.Put(key("k"), want)

	// A second cache over the same dir — the cross-process scenario.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key("k"))
	if !ok {
		t.Fatal("disk entry not found by fresh cache")
	}
	if len(got.Shots) != len(want.Shots) || got.Path != want.Path ||
		got.Attempts != want.Attempts || got.Iters != want.Iters || got.LastLoss != want.LastLoss {
		t.Fatalf("round trip mangled entry: %+v vs %+v", got, want)
	}
	for i := range got.Shots {
		if got.Shots[i] != want.Shots[i] {
			t.Fatalf("shot %d differs: %+v vs %+v", i, got.Shots[i], want.Shots[i])
		}
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Second Get is served from memory (promoted).
	if _, ok := c2.Get(key("k")); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Fatalf("promotion stats %+v", s)
	}
}

// corrupt applies f to the stored bytes of key k in dir and reports the path.
func corrupt(t *testing.T, dir string, k Key, f func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, string(k)+".wce")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptDiskEntriesDegradeToMiss(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) []byte
	}{
		{"bit-flip-payload", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"bit-flip-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"truncated-header", func(b []byte) []byte { return b[:len(magic)+2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"absurd-length", func(b []byte) []byte {
			b[len(magic)] = 0xff
			b[len(magic)+1] = 0xff
			b[len(magic)+2] = 0xff
			b[len(magic)+3] = 0xff
			return b
		}},
		{"garbage-gob", func(b []byte) []byte {
			// Valid frame, nonsense payload: recompute nothing, just zero
			// the payload so the CRC fails — then separately verify a
			// CRC-valid empty-path entry is also rejected below.
			for i := len(magic) + 8; i < len(b); i++ {
				b[i] = 0
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			c.Put(key("k"), testEntry(4))
			path := corrupt(t, dir, key("k"), tc.f)

			fresh, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(key("k")); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			s := fresh.Stats()
			if s.BadDisk != 1 || s.Misses != 1 {
				t.Fatalf("stats %+v", s)
			}
			// Self-heal: the bad file is gone, and a re-Put rewrites it.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file not deleted: %v", err)
			}
			fresh.Put(key("k"), testEntry(4))
			again, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := again.Get(key("k")); !ok {
				t.Fatal("healed entry not readable")
			}
		})
	}
}

func TestInvalidEntryRejectedOnLoad(t *testing.T) {
	// A structurally valid frame holding an entry Validate rejects (no
	// path) must degrade to a miss too.
	dir := t.TempDir()
	path := filepath.Join(dir, string(key("k"))+".wce")
	if err := writeEntry(nil, path, &Entry{}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("k")); ok {
		t.Fatal("invalid entry served as a hit")
	}
	if s := c.Stats(); s.BadDisk != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestValidateRejectsNonFiniteShots(t *testing.T) {
	nan := testEntry(1)
	nan.Shots[0].R = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN shot validated")
	}
	inf := testEntry(1)
	inf.Shots[0].X = math.Inf(1)
	if err := inf.Validate(); err == nil {
		t.Fatal("Inf shot validated")
	}
	if err := testEntry(0).Validate(); err != nil {
		t.Fatalf("empty shot list should validate: %v", err)
	}
}

func TestNewBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("New over an un-creatable dir should fail")
	}
}

func TestMemoryOnlyMissDoesNotTouchDisk(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("nope")); ok {
		t.Fatal("hit from nowhere")
	}
	if s := c.Stats(); s.Misses != 1 || s.BadDisk != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestResizeShrinksAndRestores pins the governor's shrink rung: Resize
// evicts immediately down to the new limits, Limits reports them, and
// restoring the original limits lets the cache grow again.
func TestResizeShrinksAndRestores(t *testing.T) {
	c, err := New(Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		c.Put(key(k), testEntry(1))
	}
	if s := c.Stats(); s.Entries != 6 {
		t.Fatalf("entries %d, want 6", s.Entries)
	}

	_, bytes0 := c.Limits() // byte limit as defaulted by New
	c.Resize(2, 0)          // shrink entry limit; byte limit unchanged
	if me, mb := c.Limits(); me != 2 || mb != bytes0 {
		t.Fatalf("Limits() = %d, %d after Resize(2, 0), want 2, %d", me, mb, bytes0)
	}
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 4 {
		t.Fatalf("after shrink: %+v", s)
	}
	// LRU order holds: the two most recent keys survive.
	if _, ok := c.Get(key("f")); !ok {
		t.Fatal("newest key evicted by shrink")
	}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("oldest key survived shrink")
	}

	c.Resize(8, 0) // restore
	for _, k := range []string{"g", "h", "i"} {
		c.Put(key(k), testEntry(1))
	}
	if s := c.Stats(); s.Entries != 5 {
		t.Fatalf("after restore: %+v", s)
	}

	// Byte-limit shrink evicts by bytes too, never below one entry.
	one := testEntry(1).bytes()
	c.Resize(0, one)
	if s := c.Stats(); s.Entries != 1 || s.Bytes > one {
		t.Fatalf("after byte shrink: %+v", s)
	}
	// Non-positive arguments leave both limits alone.
	c.Resize(0, 0)
	if me, mb := c.Limits(); me != 8 || mb != one {
		t.Fatalf("Limits() = %d, %d after no-op Resize", me, mb)
	}
}

// parentKey names the entry under testdata/parent: written by the commit
// before the frame moved into internal/iox, through that commit's
// Cache.Put.
const parentKey = Key("a5a5f4dd3253bf53a652cd7f97f2175fbdc8bfde63d1abb46d17f1c2cb996c95")

// TestParentEntryReframes: a disk entry the parent commit wrote decodes
// to the values it was given, is a hit for today's cache, and its
// payload re-sealed by today's writer is the parent's file byte for byte.
func TestParentEntryReframes(t *testing.T) {
	src := filepath.Join("testdata", "parent", string(parentKey)+".wce")
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := iox.ReadSealed(nil, src, magic, MaxEntryBytes)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, string(parentKey)+".wce")
	if err := iox.WriteSealed(nil, path, magic, payload, MaxEntryBytes); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-sealed entry differs from the parent's file (err %v)", err)
	}

	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(parentKey)
	wantEntry := &Entry{Shots: []geom.Circle{{X: 1.5, Y: 2.25, R: 3}, {X: 40.5, Y: -5.5, R: 6.5}, {X: 7, Y: 8, R: 0.5}},
		Path: "fallback", Attempts: 3, Iters: 17, LastLoss: 1234.5678}
	if !ok || !reflect.DeepEqual(e, wantEntry) {
		t.Fatalf("parent entry: hit %v, %+v", ok, e)
	}
}

// TestOversizedDiskEntryNeverLoaded: the size cap exists to bound what a
// corrupt entry can make the loader hold, so it must bite before the
// read, not after it — for a file far larger than the cap and for a
// header that declares a length over it. (The parent read the whole file
// first and compared lengths second.) Sparse files: nothing is written.
func TestOversizedDiskEntryNeverLoaded(t *testing.T) {
	frame, err := iox.AppendFrame(append([]byte(nil), magic...), []byte("payload"), MaxEntryBytes)
	if err != nil {
		t.Fatal(err)
	}
	for name, head := range map[string][]byte{
		"oversized file":            frame,
		"oversized declared length": append(append([]byte(nil), magic...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, string(key("k"))+".wce")
			if err := os.WriteFile(path, head, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, MaxEntryBytes+4096); err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, ok := c.Get(key("k"))
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatal("oversized entry served as a hit")
			}
			if s := c.Stats(); s.BadDisk != 1 {
				t.Fatalf("stats %+v", s)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejecting the entry allocated %d bytes; the cap is there so it allocates none of the file", n)
			}
		})
	}
}
