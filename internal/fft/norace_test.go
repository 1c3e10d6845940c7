//go:build !race

package fft

const raceEnabled = false
