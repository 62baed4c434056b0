package wire

import (
	"os"
	"testing"
)

// TestMain runs the package's tests with recycled request frames
// poisoned, so a handler that keeps an alias into its frame reads 0xA5
// bytes and fails its test.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}
