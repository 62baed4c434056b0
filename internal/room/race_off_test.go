//go:build !race

package room

const raceEnabled = false
