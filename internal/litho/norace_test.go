//go:build !race

package litho

const raceEnabled = false
