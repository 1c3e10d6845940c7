package flow

import (
	"fmt"
	"hash/fnv"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
)

// tileJournal is the run's checkpoint journal and the only code that
// knows its record format: the header fingerprint, the record's gob
// codec, replay, the tile append and the cancel barrier. A nil
// *tileJournal is a run without a checkpoint: every method is a no-op on
// it.
//
// It keeps no health flag of its own. checkpoint.Journal poisons itself
// on the first failed append or fsync and never retries on that fd, so
// Journal.Err() — the first storage error — is the one record of a
// degraded journal: later appends skip, the run finishes correct but
// un-resumable, and Result.CheckpointDegraded/CheckpointErr report it.
type tileJournal struct {
	j   *checkpoint.Journal
	enc iox.GobEncoder[journalRecord] // records stay self-describing; the run pays for the type descriptors once
}

// tileRecord is the gob payload journaled per completed tile.
type tileRecord struct {
	Shots []geom.Circle
	Stat  TileStat
}

// partialRecord is decode-only: nothing writes one. Journals written
// while the flow snapshotted CircleOpt tiles mid-optimization hold them
// between their tile records, and replay skips them: a finished tile is
// the unit of resume, and a tile the old run left half-done is
// recomputed from scratch to the same shots. The fields stay because
// they are part of journalRecord's gob descriptor, which prefixes every
// tile record: dropping them would change the bytes one is written as.
type partialRecord struct {
	Index   int
	Attempt int
	Iter    int
	Loss    float64
	Params  []float64
	OptT    int
	OptM    []float64
	OptV    []float64
}

// journalRecord frames one checkpoint payload: exactly one of Tile or
// Partial is set, and Tile is the only one written.
type journalRecord struct {
	Tile    *tileRecord
	Partial *partialRecord
}

func decodeRecord(p []byte) (journalRecord, error) {
	var rec journalRecord
	if err := iox.DecodeGob(p, &rec); err != nil {
		return rec, err
	}
	if (rec.Tile == nil) == (rec.Partial == nil) {
		return rec, fmt.Errorf("record is neither a tile nor a partial")
	}
	return rec, nil
}

// fingerprint is the journal header. It binds a checkpoint journal to
// one (layout, tiling) pair: the config fingerprint plus the layout
// identity and geometry. Resuming with a different optimizer chain
// remains the caller's responsibility, like any cache key. v3 added
// per-tile cache stats and the config-fingerprint split; v4
// added remote-host provenance to TileStat — each bump makes older
// journals fail the header check instead of decoding garbage.
func fingerprint(l *layout.Layout, cfg Config) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%s\n", configFingerprint(cfg, float64(l.TileNM)/float64(cfg.GridN)))
	// The plan was once selectable (occupancy-adaptive tiling, with merge
	// and split thresholds); the literal keeps every journal a uniform
	// run wrote matching, and fails an adaptive run's at the header.
	fmt.Fprint(h, "adaptive=false merge=0 split=0\n")
	fmt.Fprintf(h, "layout=%s tile=%d\n", l.Name, l.TileNM)
	for _, r := range l.Rects {
		fmt.Fprintf(h, "%d,%d,%d,%d\n", r.X, r.Y, r.W, r.H)
	}
	return []byte(fmt.Sprintf("cfaopc-flow-v4 %016x", h.Sum64()))
}

// decodeJournal folds journal payloads into the completed tiles, in
// order of first appearance; a tile journaled twice keeps its last
// record.
func decodeJournal(payloads [][]byte, nTiles int) ([]tileRecord, error) {
	var tiles []tileRecord
	at := make(map[int]int, len(payloads)) // tile index → position in tiles
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			return nil, fmt.Errorf("flow: corrupt checkpoint record: %w", err)
		}
		if rec.Tile == nil {
			continue
		}
		idx := rec.Tile.Stat.Index
		if idx < 0 || idx >= nTiles {
			return nil, fmt.Errorf("flow: checkpoint tile %d out of range [0, %d)", idx, nTiles)
		}
		if i, seen := at[idx]; seen {
			tiles[i] = *rec.Tile
		} else {
			at[idx] = len(tiles)
			tiles = append(tiles, *rec.Tile)
		}
	}
	return tiles, nil
}

// replay opens the checkpoint journal (if configured) and folds its
// records into outs: completed tiles drop out of the returned job list.
func (env *runEnv) replay(plan []tileJob, outs []tileOut) (jobs []tileJob, resumed int, err error) {
	cfg := env.cfg
	if cfg.CheckpointPath == "" {
		return plan, 0, nil
	}
	j, payloads, err := checkpoint.OpenFS(cfg.FS, cfg.CheckpointPath, env.fp)
	if err != nil {
		return nil, 0, fmt.Errorf("flow: %w", err)
	}
	tiles, err := decodeJournal(payloads, len(outs))
	if err != nil {
		j.Close()
		return nil, 0, err
	}
	env.journal = &tileJournal{j: j}
	for _, rec := range tiles {
		// Replayed tiles complete (again) right here, before any worker
		// starts — subscribers see the full tile picture on a resumed
		// run, marked Resumed.
		rec.Stat.Resumed = true
		outs[rec.Stat.Index] = tileOut{shots: rec.Shots, stat: rec.Stat}
		env.emitTile(rec.Stat.Index, rec.Stat)
	}
	for _, j := range plan {
		if !outs[j.index].stat.Resumed {
			jobs = append(jobs, j)
		}
	}
	return jobs, len(tiles), nil
}

// healthy reports whether appends should still be attempted.
func (t *tileJournal) healthy() bool { return t != nil && t.j.Err() == nil }

// tile journals one completed tile. Append is concurrency-safe, so
// records from parallel lanes interleave freely.
func (t *tileJournal) tile(out tileOut) {
	if !t.healthy() {
		return
	}
	if buf, err := t.enc.Encode(journalRecord{Tile: &tileRecord{Shots: out.shots, Stat: out.stat}}); err == nil {
		_ = t.j.Append(buf) // a failure poisons the journal; degraded reports it
	}
}

// sync is the cancel barrier, called once the lanes of a canceled run
// have stopped: every tile appended so far is durable once it returns on
// a healthy journal, so a resume after a crash picks up exactly where the
// cancel stopped the run. A finished run does not call it.
func (t *tileJournal) sync() {
	if t.healthy() {
		_ = t.j.Sync() // a canceled run has no Result to report it in; a resume replays what reached the disk
	}
}

// degraded reports the first storage error, if one stopped journaling.
func (t *tileJournal) degraded() (bool, string) {
	if t != nil {
		if err := t.j.Err(); err != nil {
			return true, err.Error()
		}
	}
	return false, ""
}

func (t *tileJournal) close() {
	if t != nil {
		t.j.Close()
	}
}
