package store

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mmconf/internal/blob"
)

// storeGoroutines returns the stack, by goroutine id, of every goroutine
// running store or blob code.
func storeGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "mmconf/internal/store.") || strings.HasPrefix(line, "mmconf/internal/blob.") {
				out[strings.Fields(g)[1]] = g
				break
			}
		}
	}
	return out
}

// TestClosedDBLeavesNoGoroutine closes a database in each state its one
// goroutine, the blob compactor, can be in and checks that, a second on,
// nothing the database started still runs.
func TestClosedDBLeavesNoGoroutine(t *testing.T) {
	opts := Options{Sync: SyncNever, Blob: blob.Options{SegmentSize: 64 << 10, CompactRatio: 0.9}}
	for name, work := range map[string]func(t *testing.T, db *DB){
		"idle": func(*testing.T, *DB) {},
		// Frees leave sealed segments sparse and kick the compactor, which
		// may be anywhere in its loop when Close comes.
		"compacting": func(t *testing.T, db *DB) {
			var hs []blob.Handle
			for i := 0; i < 64; i++ {
				hs = append(hs, putNoise(t, db, i, 8<<10))
			}
			for i, h := range hs {
				if i%4 != 0 {
					if err := db.ReleaseBlob(h); err != nil {
						t.Fatal(err)
					}
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			before := storeGoroutines()
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(storeGoroutines()) == len(before) {
				t.Fatal("the open database runs no goroutine: the check would pass on anything")
			}
			work(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			var left []string
			for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
				left = left[:0]
				for id, g := range storeGoroutines() {
					if _, ok := before[id]; !ok {
						left = append(left, g)
					}
				}
				if len(left) == 0 || time.Now().After(deadline) {
					break
				}
			}
			for _, g := range left {
				t.Errorf("goroutine outlived Close:\n%s", g)
			}
		})
	}
}
