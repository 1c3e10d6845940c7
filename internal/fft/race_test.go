//go:build race

package fft

// raceEnabled gates the tests whose subject the race detector distorts:
// under -race sync.Pool drops a share of what is Put, and timings mean
// nothing.
const raceEnabled = true
