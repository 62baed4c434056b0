//go:build race

package main

// raceEnabled: the race detector slows the smoke run several times over,
// so its time limit is only checked without it.
const raceEnabled = true
