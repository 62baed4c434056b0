package cluster

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

// TestMain runs the package's tests with recycled request frames
// poisoned, so a handler that keeps an alias into its frame reads 0xA5
// bytes and fails its test.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}
