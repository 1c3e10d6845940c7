package flow

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/testkit/layoutkit"
)

// encodeRecord is the journal's codec as it was before the tile journal
// kept a warmed encoder: a fresh gob encoder per record. It is the oracle
// the warmed encoder's bytes are held to.
func encodeRecord(rec journalRecord) ([]byte, error) { return iox.EncodeGob(rec) }

// randomRecord draws a tile or a partial record; about one field in three
// is left at its zero value (gob omits those, so they move every offset).
func randomRecord(rng *rand.Rand) journalRecord {
	some := func() bool { return rng.Intn(3) != 0 }
	str := func(s string) string {
		if some() {
			return s
		}
		return ""
	}
	floats := func() []float64 {
		if !some() {
			return nil
		}
		f := make([]float64, rng.Intn(40))
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	n := func() int {
		if some() {
			return rng.Intn(1 << 20)
		}
		return 0
	}
	if rng.Intn(4) == 0 {
		return journalRecord{Partial: &partialRecord{
			Index: n(), Attempt: n(), Iter: n(), Loss: rng.Float64() * float64(n()),
			Params: floats(), OptT: n(), OptM: floats(), OptV: floats(),
		}}
	}
	t := &tileRecord{Stat: TileStat{
		Index: n(), CX: n(), CY: n(), Core: n(), Window: n(), Occupied: some(), Shots: n(),
		Wall: time.Duration(n()), RasterWall: time.Duration(n()), Attempts: n(),
		Path: str(PathFallback), Failure: str("attempt 0 (primary): panic: injected"),
		Iters: n(), LastLoss: float64(n()) / 7, Stalled: some(), Bundle: str("/q/tile0003.qrb"),
		Proc: some(), Host: str("127.0.0.1:9"), ProcCrashes: n(), LinkErr: str("link ended: iox: torn frame"), CacheHit: some(), CacheKey: str("k0"),
	}}
	if some() {
		t.Shots = make([]geom.Circle, rng.Intn(30))
		for i := range t.Shots {
			t.Shots[i] = geom.Circle{X: rng.Float64() * 192, Y: rng.Float64() * 192, R: 3 + rng.Float64()*16}
		}
	}
	return journalRecord{Tile: t}
}

// What the tile journal appends through its warmed encoder is, record by
// record, what a fresh encoder writes — the bytes every earlier journal
// holds — for tile and partial records in any order, with any subset of
// fields zero, including the all-zero records.
func TestJournalEncoderMatchesFreshEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	recs := []journalRecord{{Tile: &tileRecord{}}, {Partial: &partialRecord{}}, {Tile: &tileRecord{Shots: []geom.Circle{}}}}
	for len(recs) < 600 {
		recs = append(recs, randomRecord(rng))
	}
	for _, first := range []int{0, 1, 5} { // warm up on a tile, on a partial, on a random one
		var j tileJournal
		for i := first; i < len(recs); i++ {
			got, err := j.enc.Encode(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := encodeRecord(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d (warmed on %d): %d bytes through the journal's encoder, %d fresh, or they differ", i, first, len(got), len(want))
			}
			if _, err := decodeRecord(got); err != nil {
				t.Fatalf("record %d does not decode on its own: %v", i, err)
			}
		}
	}
}

// A rule tile costs the flow a fixed handful of allocations — the shot
// lists it keeps, the stat, the event — and no window-sized buffer: the
// window raster is the lane's, the fracturer and its labels come from a
// pool. A 64-tile CircleRule run stays within 24 allocations and 32 KB
// per tile (17 and 9 KB when this was written; 69 and 554 KB before).
func TestRuleTileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const gridN, runs = 1024, 5
	l := layoutkit.GenerateRandom(7, layoutkit.RandomConfig{Features: 16, MarginNM: 128})
	cfg := benchFlowConfig(l, gridN)
	tiles := 0
	run := func() {
		res, err := RunContext(context.Background(), l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tiles = res.Tiles
	}
	run() // kernels, ladder, pooled fracturers
	// One P, as testing.AllocsPerRun has: MemStats is process-wide.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perTile := float64(runs * tiles)
	allocs := float64(after.Mallocs-before.Mallocs) / perTile
	kb := float64(after.TotalAlloc-before.TotalAlloc) / perTile / 1024
	t.Logf("%d-tile CircleRule run: %.1f allocations and %.1f KB per tile", tiles, allocs, kb)
	if tiles != 64 || allocs > 24 || kb > 32 {
		t.Fatalf("%d tiles at %.1f allocations and %.1f KB each; ceilings are 64 tiles, 24 and 32 KB", tiles, allocs, kb)
	}
}
