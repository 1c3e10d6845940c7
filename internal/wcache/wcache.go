// Package wcache is the window dedup cache: real mask layouts are
// massively repetitive (memory arrays, std-cell rows), and the tiled
// flow re-optimizes every window from scratch even when hundreds of
// windows are pixel-identical. This package keys each optimized window
// by a canonical content hash — the window target raster, the owning
// rect spans normalized to window-local coordinates, the core geometry,
// and the flow's engine/optics/tiling config fingerprint — so a tile
// whose content already ran anywhere on the grid is answered by
// translating the cached window-local shots into place instead of
// re-optimizing.
//
// Storage is a two-tier affair: an in-memory LRU bounded by entry count
// and bytes, plus an optional on-disk store (one CRC-guarded gob file
// per key: an iox sealed file, written atomically via temp + rename like
// internal/quarantine's bundles) so caches survive runs and can be
// shared across processes. A corrupted, torn, or short disk entry always
// degrades to a miss — never to a wrong tile — and is deleted so the
// next run rewrites it.
//
// The cache is correctness-critical only in the negative sense: the
// flow must be byte-identical with the cache on or off. That holds
// because the key covers every input the optimizer sees (raster, spans,
// core box, config fingerprint), the optimizer chain is deterministic,
// and translation by an integer pixel offset is exact in float64.
package wcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
)

var magic = []byte("CFWC1\n")

// keyVersion is folded into every hash so a change to the canonical
// encoding can never collide with keys from an older scheme. Bumping it
// invalidates all persisted caches; the golden-pin test exists so that
// only happens on purpose.
const keyVersion = "cfaopc-wkey-v1"

// MaxEntryBytes bounds a disk entry payload so a corrupt length prefix
// cannot demand an absurd allocation during load.
const MaxEntryBytes = 64 << 20

// Key is the hex-encoded canonical content hash of one window.
type Key string

// Span is one owning rectangle's half-open pixel footprint in
// window-local coordinates, mirroring layout.Span without importing it
// (wcache stays a leaf below layout-consuming packages).
type Span struct{ X0, X1, Y0, Y1 int }

// WindowDesc is everything about one tile window that the optimizer's
// output depends on, in window-local coordinates. Two windows with
// equal descriptors produce byte-identical shots under a deterministic
// engine, which is exactly the claim TestCacheDeterminism enforces.
type WindowDesc struct {
	W, H   int       // window dims in pixels
	Raster []float64 // row-major target, len W·H; hashed as a bitmap (v > 0.5)
	Spans  []Span    // canonical owning-rect spans (layout.WindowSpans output)
	// Core box, window-local: shots whose centers land here are owned.
	CoreX, CoreY, CoreW, CoreH int
}

// WindowKey hashes a window descriptor plus the flow's config
// fingerprint into the canonical cache key. The prefix must cover every
// config knob that can change the optimizer's output (engines, optics,
// grid scale, retry/validation policy); the flow derives it from the
// same fingerprint machinery that binds checkpoint journals.
func WindowKey(prefix string, d WindowDesc) Key {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte(keyVersion))
	writeInt(len(prefix))
	h.Write([]byte(prefix))
	writeInt(d.W)
	writeInt(d.H)
	writeInt(d.CoreX)
	writeInt(d.CoreY)
	writeInt(d.CoreW)
	writeInt(d.CoreH)
	// Raster as a packed bitmap: the optimizer sees a binary target, so
	// the key must too — 0.99 vs 1.0 foreground encodes identically.
	writeInt(len(d.Raster))
	var acc byte
	var nbits int
	for _, v := range d.Raster {
		acc <<= 1
		if v > 0.5 {
			acc |= 1
		}
		nbits++
		if nbits == 8 {
			h.Write([]byte{acc})
			acc, nbits = 0, 0
		}
	}
	if nbits > 0 {
		h.Write([]byte{acc << (8 - nbits)})
	}
	writeInt(len(d.Spans))
	for _, s := range d.Spans {
		writeInt(s.X0)
		writeInt(s.X1)
		writeInt(s.Y0)
		writeInt(s.Y1)
	}
	return Key(fmt.Sprintf("%x", h.Sum(nil)))
}

// Entry is one cached optimization result: the full window-local shot
// list (pre-ownership-filter, so any twin window can re-filter for its
// own core) plus the attempt record the twin inherits for stats.
type Entry struct {
	Shots    []geom.Circle // window-local coordinates
	Path     string        // "primary" or "fallback"
	Attempts int
	Iters    int
	LastLoss float64
}

// Validate rejects entries no healthy run could have produced; it backs
// the load path so even a CRC-clean-but-nonsensical file becomes a miss.
func (e *Entry) Validate() error {
	if e.Path == "" {
		return fmt.Errorf("wcache: entry has no path")
	}
	for _, s := range e.Shots {
		if math.IsNaN(s.X) || math.IsNaN(s.Y) || math.IsNaN(s.R) ||
			math.IsInf(s.X, 0) || math.IsInf(s.Y, 0) || math.IsInf(s.R, 0) {
			return fmt.Errorf("wcache: entry shot is not finite")
		}
	}
	return nil
}

// bytes estimates an entry's resident size for the LRU byte budget.
func (e *Entry) bytes() int64 {
	return 96 + int64(len(e.Shots))*24 + int64(len(e.Path))
}

// Config sizes the cache. Zero values get sane defaults; Dir == ""
// means memory-only.
type Config struct {
	MaxEntries int    // in-memory LRU entry budget (default 4096)
	MaxBytes   int64  // in-memory LRU byte budget (default 256 MiB)
	Dir        string // on-disk store directory; "" disables the disk tier
	FS         iox.FS // filesystem seam for the disk tier; nil = real filesystem
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 // Get successes (memory or disk)
	DiskHits  int64 // subset of Hits served by promoting a disk entry
	Misses    int64 // Get failures
	Puts      int64
	Evictions int64
	BadDisk   int64 // corrupt/torn disk entries degraded to a miss
	DiskErrs  int64 // best-effort disk writes that failed
	Entries   int   // current in-memory entries
	Bytes     int64 // current in-memory bytes
	// LastDiskErr is the most recent disk-tier failure, "" when the
	// tier is healthy. Purely diagnostic: every disk fault already
	// degraded to the memory tier by the time it is recorded here.
	LastDiskErr string
}

type lruItem struct {
	key   Key
	entry *Entry
	size  int64
}

// Cache is the two-tier window result cache. All methods are safe for
// concurrent use; disk I/O happens outside the lock so tile workers
// never serialize on each other's reads.
type Cache struct {
	cfg  Config
	fsys iox.FS

	mu    sync.Mutex
	ll    *list.List
	items map[Key]*list.Element
	bytes int64
	stats Stats
}

// New builds a cache, creating the disk directory when one is set.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	fsys := iox.OrOS(cfg.FS)
	if cfg.Dir != "" {
		if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("wcache: %w", err)
		}
	}
	return &Cache{cfg: cfg, fsys: fsys, ll: list.New(), items: make(map[Key]*list.Element)}, nil
}

// Dir returns the disk tier directory ("" when memory-only).
func (c *Cache) Dir() string { return c.cfg.Dir }

func (c *Cache) path(k Key) string {
	return filepath.Join(c.cfg.Dir, string(k)+".wce")
}

// Get returns the cached entry for k. The memory tier is checked first;
// on a memory miss with a disk tier configured, the disk entry is
// loaded, verified, promoted into memory, and returned. Any disk
// verification failure deletes the bad file and reports a miss.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruItem).entry
		c.stats.Hits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()

	if c.cfg.Dir == "" {
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	e, err := loadEntry(c.fsys, c.path(k))
	if err != nil {
		if !iox.IsNotExist(err) {
			// Corrupt, torn, or nonsensical: degrade to a miss and
			// delete so the next Put heals the file.
			c.fsys.Remove(c.path(k))
			c.count(func(s *Stats) { s.BadDisk++; s.LastDiskErr = err.Error() })
		}
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	c.insert(k, e)
	c.count(func(s *Stats) { s.Hits++; s.DiskHits++ })
	return e, true
}

// Put stores e under k in the memory tier and, when configured, the
// disk tier. Disk writes are best-effort (a full disk must not fail the
// run) and atomic (temp + fsync + rename + parent-dir fsync), so
// readers never observe a torn file and a surviving file survives power
// loss. Put never fails: any disk fault degrades the entry to the
// memory tier and is counted in DiskErrs/LastDiskErr.
func (c *Cache) Put(k Key, e *Entry) {
	c.insert(k, e)
	c.count(func(s *Stats) { s.Puts++ })
	if c.cfg.Dir == "" {
		return
	}
	if err := writeEntry(c.fsys, c.path(k), e); err != nil {
		c.count(func(s *Stats) { s.DiskErrs++; s.LastDiskErr = err.Error() })
	}
}

func (c *Cache) insert(k Key, e *Entry) {
	size := e.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*lruItem)
		c.bytes += size - it.size
		it.entry, it.size = e, size
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&lruItem{key: k, entry: e, size: size})
		c.bytes += size
	}
	c.evictLocked()
	c.stats.Entries = c.ll.Len()
	c.stats.Bytes = c.bytes
}

// evictLocked trims the memory tier to the configured budgets, always
// keeping at least one entry so a single oversized window still caches.
func (c *Cache) evictLocked() {
	for (c.ll.Len() > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes) && c.ll.Len() > 1 {
		back := c.ll.Back()
		it := back.Value.(*lruItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.size
		c.stats.Evictions++
	}
}

// Resize changes the memory-tier budgets at runtime and evicts down to
// them immediately. A non-positive argument leaves that budget
// unchanged. This is the pressure-shedding hook: a resource governor
// can shrink the tier when the heap crosses a watermark and restore it
// once pressure recedes. The disk tier is unaffected.
func (c *Cache) Resize(maxEntries int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxEntries > 0 {
		c.cfg.MaxEntries = maxEntries
	}
	if maxBytes > 0 {
		c.cfg.MaxBytes = maxBytes
	}
	c.evictLocked()
	c.stats.Entries = c.ll.Len()
	c.stats.Bytes = c.bytes
}

// Limits reports the current memory-tier budgets.
func (c *Cache) Limits() (maxEntries int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.MaxEntries, c.cfg.MaxBytes
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// writeEntry stores a gob-encoded entry as an iox sealed file — magic,
// then one length | CRC32 | payload frame — atomically and
// crash-durably.
func writeEntry(fsys iox.FS, path string, e *Entry) error {
	payload, err := iox.EncodeGob(e)
	if err != nil {
		return err
	}
	return iox.WriteSealed(fsys, path, magic, payload, MaxEntryBytes)
}

// loadEntry reads and fully verifies a disk entry, never holding more
// than MaxEntryBytes of it. Every failure mode — bad magic, torn tail,
// trailing bytes, oversized length, CRC failure, gob rot, non-finite
// shots — comes back as an error the caller turns into a miss.
func loadEntry(fsys iox.FS, path string) (*Entry, error) {
	payload, err := iox.ReadSealed(fsys, path, magic, MaxEntryBytes)
	if err != nil {
		return nil, fmt.Errorf("wcache: %w", err)
	}
	e := new(Entry)
	if err := iox.DecodeGob(payload, e); err != nil {
		return nil, fmt.Errorf("wcache: decode %s: %w", path, err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}
