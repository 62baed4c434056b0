package room

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"mmconf/internal/wire"
)

// TestQueueDropsCountedAndResyncHinted floods a stalled member past its
// queue bound and checks the loss is no longer silent: drops are
// counted per member, the drop hook fires, and the next delivered
// events carry the Resync hint telling the client to replay History.
func TestQueueDropsCountedAndResyncHinted(t *testing.T) {
	r := newRoom(t)
	// The hook runs under the room lock, so a plain map is safe; the
	// flooding "active" member may itself fall behind its drainer, so
	// count per member rather than assuming only the sloth drops.
	hooked := map[string]uint64{}
	r.OnQueueDrop(func(member string) { hooked[member]++ })
	sloth, _, _, _ := r.Join(context.Background(), "sloth") // never drains during the flood
	active, _, _, _ := r.Join(context.Background(), "active")
	go func() {
		for range active.Events() {
		}
	}()
	const flood = memberQueueSize + 50
	for i := 0; i < flood; i++ {
		if err := r.Chat("active", "spam"); err != nil {
			t.Fatalf("chat %d: %v", i, err)
		}
	}
	if sloth.Drops() == 0 {
		t.Error("drops not counted")
	}
	r.mu.Lock()
	slothHooked := hooked["sloth"]
	r.mu.Unlock()
	if slothHooked != sloth.Drops() {
		t.Errorf("hook counted %d sloth drops, member counted %d", slothHooked, sloth.Drops())
	}
	evs := drain(sloth)
	resync := 0
	for _, ev := range evs {
		if ev.Resync {
			resync++
		}
	}
	if resync == 0 {
		t.Error("no delivered event carried the resync hint after drops")
	}
}

// TestNoResyncWithoutDrops checks the hint stays off on a healthy
// stream.
func TestNoResyncWithoutDrops(t *testing.T) {
	r := newRoom(t)
	m, _, _, _ := r.Join(context.Background(), "alice")
	if err := r.Chat("alice", "hello"); err != nil {
		t.Fatal(err)
	}
	for _, ev := range drain(m) {
		if ev.Resync {
			t.Errorf("resync hint on event %v without any drop", ev.Kind)
		}
	}
	if m.Drops() != 0 {
		t.Errorf("drops = %d on a drained member", m.Drops())
	}
}

// TestEncodeSharedOncePerBroadcast fans one chat out to several members
// and checks the wire payload is computed exactly once across all
// copies — the encode-once contract of the push path.
func TestEncodeSharedOncePerBroadcast(t *testing.T) {
	r := newRoom(t)
	const n = 4
	members := make([]*Member, n)
	names := []string{"a", "b", "c", "d"}
	for i := range members {
		m, _, _, err := r.Join(context.Background(), names[i])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	// Settle the join traffic so each member's next event is the chat.
	for _, m := range members {
		drain(m)
	}
	if err := r.Chat("a", "one encode, please"); err != nil {
		t.Fatal(err)
	}
	var encodes atomic.Uint64
	payloads := make([][]byte, n)
	var wg sync.WaitGroup
	for i, m := range members {
		ev := <-m.Events()
		if ev.Kind != EvChat {
			t.Fatalf("member %d got %v, want chat", i, ev.Kind)
		}
		wg.Add(1)
		go func(i int, ev Event) {
			defer wg.Done()
			data, encoded := ev.EncodeShared()
			if encoded {
				encodes.Add(1)
			}
			payloads[i] = data
		}(i, ev)
	}
	wg.Wait()
	if got := encodes.Load(); got != 1 {
		t.Errorf("broadcast event encoded %d times across %d members, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("member %d got different payload bytes", i)
		}
	}
	// The shared payload decodes back to the same event.
	var dec Event
	if err := wire.DecodeBodyBytes(payloads[0], &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Kind != EvChat || dec.Text != "one encode, please" || dec.Actor != "a" {
		t.Errorf("decoded event = %+v", dec)
	}
}

// TestEncodeSharedSingleMemberAndPresentation checks the events that
// must NOT share an encoding: a single-member fan-out and per-member
// presentation events each encode individually.
func TestEncodeSharedPerMemberEvents(t *testing.T) {
	r := newRoom(t)
	a, _, _, _ := r.Join(context.Background(), "alice")
	b, _, _, _ := r.Join(context.Background(), "bob")
	drain(a)
	drain(b)
	// A choice reconfigures: each member gets a per-member EvPresentation.
	if err := r.Choice(context.Background(), "alice", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	sawPresentation := false
	for _, m := range []*Member{a, b} {
		for _, ev := range drain(m) {
			if ev.Kind != EvPresentation {
				continue
			}
			sawPresentation = true
			if ev.shared != nil {
				t.Error("presentation event carries a shared encoding")
			}
			// No shared slot: every call encodes.
			for i := 0; i < 2; i++ {
				if _, encoded := ev.EncodeShared(); !encoded {
					t.Errorf("presentation event encode %d reused a shared encoding", i)
				}
			}
		}
	}
	if !sawPresentation {
		t.Error("no presentation event observed")
	}
}

// TestDocSnapshotCaching checks joins reuse the marshaled document
// until a document mutation invalidates it.
func TestDocSnapshotCaching(t *testing.T) {
	r := newRoom(t)
	if _, _, _, err := r.Join(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}
	d1, hit, err := r.DocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first snapshot reported a cache hit")
	}
	d2, hit, err := r.DocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second snapshot missed the cache")
	}
	if !bytes.Equal(d1, d2) {
		t.Error("cached snapshot differs")
	}
	// A shared operation mutates the document: the snapshot must be
	// rebuilt and contain the derived variable.
	if _, err := r.Operation(context.Background(), "alice", "ct", "zoom", "full", false); err != nil {
		t.Fatal(err)
	}
	d3, hit, err := r.DocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("snapshot after document mutation reported a cache hit")
	}
	if bytes.Equal(d2, d3) {
		t.Error("snapshot unchanged after document mutation")
	}
	if _, hit, _ := r.DocSnapshot(); !hit {
		t.Error("rebuilt snapshot not cached")
	}
}
