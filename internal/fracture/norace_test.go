//go:build !race

package fracture

const raceEnabled = false
