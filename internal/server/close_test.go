package server

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

// programGoroutines returns the stack, by goroutine id, of every
// goroutine running code of this module.
func programGoroutines() map[string]string {
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
			if strings.HasPrefix(line, "mmconf/") {
				out[strings.Fields(g)[1]] = g
				break
			}
		}
	}
	return out
}

// checkSettles fails the test if, once its cleanups have run, a
// goroutine of this module started since the call is still running two
// seconds on. Call it first, so its check runs after every cleanup
// registered later: the clients', the servers' and the stores' closes.
func checkSettles(t *testing.T) {
	t.Helper()
	before := programGoroutines()
	t.Cleanup(func() {
		var left []string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			left = left[:0]
			for id, g := range programGoroutines() {
				if _, ok := before[id]; !ok {
					left = append(left, g)
				}
			}
			if len(left) == 0 || time.Now().After(deadline) {
				break
			}
		}
		for _, g := range left {
			t.Errorf("goroutine outlived the test:\n%s", g)
		}
	})
}

// TestClosedServerLeavesNoGoroutine serves a join, a choice and a leave,
// then closes the client, the server and the store, and checks that, a
// second on, nothing started since the test began still runs.
func TestClosedServerLeavesNoGoroutine(t *testing.T) {
	before := programGoroutines()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Populate(m, "p1", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := client.Dial(l.Addr().String(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := c.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Choice("ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	if err := s.LeaveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(programGoroutines()) <= len(before) {
		t.Fatal("the serving system runs no goroutine: the check would pass on anything")
	}
	c.Close()
	srv.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var left []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		left = left[:0]
		for id, g := range programGoroutines() {
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
}
