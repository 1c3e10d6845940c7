//go:build race

package fracture

// raceEnabled gates the allocation guard: under -race sync.Pool drops a
// share of what is Put, so a pooled fracturer is often a new one.
const raceEnabled = true
