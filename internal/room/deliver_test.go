package room

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"mmconf/internal/core"
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

// TestEncodeSharedPerMemberEvents checks which presentations share an
// encoding: members of one evidence class that hold the same view get one
// event — one Seq, one encode, the same bytes — while a member that holds
// another view, or is presented alone, gets its own.
func TestEncodeSharedPerMemberEvents(t *testing.T) {
	r := newTunedRoom(t)
	ctx := context.Background()
	a, _, _, _ := r.Join(ctx, "alice")
	b, _, _, _ := r.Join(ctx, "bob")
	presentation := func(m *Member) Event {
		t.Helper()
		var found *Event
		for _, ev := range drain(m) {
			if ev.Kind == EvPresentation {
				if found != nil {
					t.Fatalf("%s got two presentations", m.Name)
				}
				found = &ev
			}
		}
		if found == nil {
			t.Fatalf("%s got no presentation", m.Name)
		}
		return *found
	}
	drain(a)
	drain(b)

	// A choice reconfigures: both hold the same view and are due the same.
	if err := r.Choice(ctx, "alice", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	pa, pb := presentation(a), presentation(b)
	if pa.shared == nil || pa.shared != pb.shared {
		t.Fatal("two members of one class holding one view do not share an encoding")
	}
	if pa.Seq != pb.Seq || pa.Base != pb.Base || pa.View != pb.View || pa.Base == 0 {
		t.Errorf("shared presentations differ: seq %d/%d, base %d/%d, view %d/%d", pa.Seq, pb.Seq, pa.Base, pb.Base, pa.View, pb.View)
	}
	if pa.Actor != "alice" || pb.Actor != "alice" {
		t.Errorf("shared presentation names %q and %q, want the choice's actor", pa.Actor, pb.Actor)
	}
	da, first := pa.EncodeShared()
	db, second := pb.EncodeShared()
	if !first || second {
		t.Errorf("encoded = %v then %v, want one encode and one reuse", first, second)
	}
	if !bytes.Equal(da, db) {
		t.Error("the two members' payloads differ")
	}

	// A joiner holds the whole view its join returned: it is due the same
	// view as the others (one id) but from another, so its change against
	// the returned view is its own event.
	c, _, joined, err := r.Join(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Kind != EvPresentation || joined.Base != 0 || joined.View == 0 {
		t.Fatalf("the join returned %v, base %d, view %d: not a whole view under an id", joined.Kind, joined.Base, joined.View)
	}
	pa, pb, pc := presentation(a), presentation(b), presentation(c)
	if pa.shared != pb.shared || pa.Seq != pb.Seq {
		t.Error("the two standing members stopped sharing when a third joined")
	}
	if pc.Base != joined.View || pc.Seq == pa.Seq || pc.shared == pa.shared {
		t.Errorf("the joiner's presentation: base %d (the join returned view %d), seq %d (others %d)", pc.Base, joined.View, pc.Seq, pa.Seq)
	}
	if pc.View != pa.View {
		t.Errorf("one view under two ids: %d for the joiner, %d for the others", pc.View, pa.View)
	}
	// Having reached one view by different events, all three share next.
	if err := r.Choice(ctx, "alice", "ct", "full"); err != nil {
		t.Fatal(err)
	}
	pa, pb, pc = presentation(a), presentation(b), presentation(c)
	if pa.shared != pc.shared || pb.shared != pc.shared || pc.shared == nil {
		t.Error("a member that reached the view by its join's does not share the next change")
	}

	// A presentation for one member alone has no shared slot: every
	// call encodes.
	if changed, err := r.SetMemberEnvironment("bob", core.BandwidthVariable, core.BandwidthLow); err != nil || !changed {
		t.Fatalf("pin bob's bandwidth: changed=%v err=%v", changed, err)
	}
	pb = presentation(b)
	if pb.shared != nil {
		t.Error("a presentation for one member carries a shared encoding")
	}
	for i := 0; i < 2; i++ {
		if _, encoded := pb.EncodeShared(); !encoded {
			t.Errorf("single-member presentation encode %d reused a shared encoding", i)
		}
	}
	if len(drain(a)) != 0 || len(drain(c)) != 0 {
		t.Error("one member's environment pin reached another's queue")
	}
}

// TestShedPresentationIsMadeUpOnce: a member that sheds a presentation to
// take another event is owed a whole one. When nothing reconfigures the
// room it follows the event at once; when the event's own reconfiguration
// is about to present everyone, that presentation is the whole one and no
// second is queued before it.
func TestShedPresentationIsMadeUpOnce(t *testing.T) {
	r := newRoom(t)
	ctx := context.Background()
	a, _, _, _ := r.Join(ctx, "alice")
	b, _, _, _ := r.Join(ctx, "bob")
	drain(b)
	// Bob stalls. Each choice queues him a choice and a presentation; a
	// chat more than fills the queue and leaves a presentation its oldest.
	for i := 0; i < memberQueueSize/2; i++ {
		if err := r.Choice(ctx, "alice", "ct", []string{"segmented", "full"}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Chat("alice", "sheds a choice"); err != nil {
		t.Fatal(err)
	}
	drain(a)
	newest := func() Event {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		evs := make([]Event, 0, len(b.ch))
		for len(b.ch) > 0 {
			evs = append(evs, <-b.ch)
		}
		for _, ev := range evs {
			b.ch <- ev
		}
		if len(evs) != memberQueueSize {
			t.Fatalf("bob's queue holds %d events, want it full", len(evs))
		}
		if evs[0].Kind != EvPresentation {
			t.Fatalf("bob's oldest event is a %v: the next delivery sheds no presentation", evs[0].Kind)
		}
		return evs[len(evs)-1]
	}
	newest()

	before := r.Seq()
	if err := r.Chat("alice", "sheds a presentation"); err != nil {
		t.Fatal(err)
	}
	if got := r.Seq() - before; got != 2 {
		t.Errorf("a chat that shed a presentation took %d sequence numbers, want 2: the chat and the whole presentation made up", got)
	}
	// The make-up shed the choice behind the presentation: a presentation
	// is bob's oldest event again.
	if last := newest(); last.Kind != EvPresentation || last.Base != 0 {
		t.Fatalf("bob's newest event: %v made against view %d, want the whole presentation made up", last.Kind, last.Base)
	}

	before = r.Seq()
	if err := r.Choice(ctx, "alice", "ct", "lowres"); err != nil {
		t.Fatal(err)
	}
	if got := r.Seq() - before; got != 3 {
		t.Errorf("a choice that shed a presentation took %d sequence numbers, want 3: the choice, alice's change and bob's whole view", got)
	}
	if last := newest(); last.Kind != EvPresentation || last.Base != 0 || last.shared != nil {
		t.Errorf("bob's newest event: %v made against view %d (shared: %v), want his own whole presentation", last.Kind, last.Base, last.shared != nil)
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
