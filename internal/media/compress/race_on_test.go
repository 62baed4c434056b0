//go:build race

package compress

// raceEnabled: a sync.Pool under the race detector drops what it is
// handed at random, so a decode's allocations are counted only without it.
const raceEnabled = true
