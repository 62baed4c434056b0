//go:build race

package core

// raceEnabled: the race detector allocates on its own account, so the
// counted tests only run without it.
const raceEnabled = true
