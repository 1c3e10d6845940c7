//go:build !race

package flow

const raceEnabled = false
