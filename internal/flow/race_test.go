//go:build race

package flow

// raceEnabled gates the per-tile allocation guard: under -race sync.Pool
// drops a share of what is Put, so pooled fracturers are often new ones.
const raceEnabled = true
