package server

import (
	"sync"
	"testing"

	"mmconf/internal/room"
)

// TestSnapshotRoomIsNeverTorn: a snapshot is what a new owner's first
// buildRoom restores after a handoff or a drain, and room.Restore refuses
// a log holding an event past its own Seq — the replica is then dropped.
// While a member keeps choosing, every snapshot taken must restore: the
// events and both marks are one read of the room, not three.
func TestSnapshotRoomIsNeverTorn(t *testing.T) {
	srv, addr, rec := testSystem(t)
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
	// Each snapshot reads on from the one before, as flushes do: copying
	// the whole buffer 20 000 times would be most of the test's time.
	var since uint64
	for i := 0; i < 20000 && !t.Failed(); i++ {
		snap, ok := srv.SnapshotRoom("consult", since)
		if !ok {
			t.Fatal("the room is gone")
		}
		fresh, err := room.New("consult", rec.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(snap.Events, snap.Seq, snap.Trimmed); err != nil {
			t.Errorf("snapshot %d (seq %d, trimmed %d, %d events) does not restore: %v",
				i, snap.Seq, snap.Trimmed, len(snap.Events), err)
		}
		fresh.Close()
		since = snap.Seq
	}
	close(stop)
	wg.Wait()
}
