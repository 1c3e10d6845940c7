//go:build race

package litho

// raceEnabled gates the tests whose subject the race detector distorts:
// under -race the fft package's sync.Pool drops a share of what is Put
// (so "allocates nothing" is false there), and timings mean nothing.
const raceEnabled = true
