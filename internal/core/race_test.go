//go:build race

package core

// raceEnabled gates the allocation guard: under -race the fft package's
// sync.Pool drops a share of what is Put, so "allocates nothing" is false
// there.
const raceEnabled = true
