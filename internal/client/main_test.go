package client

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// poisonFrames is wire's recycled-frame poison switch (wire/framepool.go),
// which only test mains set.
//
//go:linkname poisonFrames mmconf/internal/wire.poisonFrames
var poisonFrames bool

// TestMain runs the package's tests with released reply frames
// poisoned, so a fetch that reads a payload after its frame went back to
// the pool reads 0xA5 bytes and fails its test.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}
