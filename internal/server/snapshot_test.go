package server

import (
	"sync"
	"testing"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/room"
)

// TestSnapshotRoomIsNeverTorn: a snapshot is the frame a standby merges,
// and room.Log.Merge refuses a frame holding an event past its own Seq.
// While a member keeps choosing, every snapshot taken must merge: the
// events and both marks are one read of the room, not three.
func TestSnapshotRoomIsNeverTorn(t *testing.T) {
	srv, addr, _ := testSystem(t)
	c := dial(t, addr, "alice")
	s, _, err := c.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the member's display
		defer wg.Done()
		for {
			select {
			case <-c.Events():
			case <-stop:
				return
			}
		}
	}()
	go func() { // the driver
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Choice("ct", []string{"segmented", "full"}[i%2]); err != nil {
				t.Errorf("choice %d: %v", i, err)
				return
			}
		}
	}()
	// Each snapshot reads on from the one before into the frame it
	// keeps, as flushes do, and merges into one log, as a standby does,
	// until the room has issued three thousand Seqs.
	var (
		snap  proto.ReplicateReq
		l     room.Log
		since uint64
	)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; l.Seq() < 3000 && !t.Failed(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("the room reached only seq %d", l.Seq())
		}
		if !srv.SnapshotRoomInto(&snap, "consult", since) {
			t.Fatal("the room is gone")
		}
		if err := l.Merge(snap.Events, snap.Seq, snap.Trimmed); err != nil {
			t.Errorf("snapshot %d (seq %d, trimmed %d, %d events) does not merge: %v",
				i, snap.Seq, snap.Trimmed, len(snap.Events), err)
		}
		since = snap.Seq
	}
	close(stop)
	wg.Wait()
}
