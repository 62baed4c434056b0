package room

import (
	"context"
	"testing"

	"mmconf/internal/core"
	"mmconf/internal/workload"
)

func newTunedRoom(t *testing.T) *Room {
	t.Helper()
	doc, err := workload.MedicalRecord("rec-qos", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	r, err := New("consult-qos", doc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// SetMemberEnvironment re-solves one member's presentation and pushes it
// to them alone — the other member's stream carries no presentation
// event and their view keeps full fidelity.
func TestSetMemberEnvironmentPushesOnlyToThatMember(t *testing.T) {
	r := newTunedRoom(t)
	slow, _, _, err := r.Join(context.Background(), "clinic")
	if err != nil {
		t.Fatal(err)
	}
	fast, _, _, _ := r.Join(context.Background(), "hospital")
	drain(slow)
	drain(fast)

	changed, err := r.SetMemberEnvironment("clinic", core.BandwidthVariable, core.BandwidthLow)
	if err != nil || !changed {
		t.Fatalf("SetMemberEnvironment: changed=%v err=%v", changed, err)
	}
	evs := drain(slow)
	var pres *Event
	for i := range evs {
		if evs[i].Kind == EvPresentation {
			pres = &evs[i]
		}
	}
	if pres == nil {
		t.Fatal("no presentation event delivered to the degraded member")
	}
	if shown(*pres).Outcome["ct"] != "lowres" {
		t.Errorf("degraded ct = %s, want lowres", shown(*pres).Outcome["ct"])
	}
	if !shown(*pres).Visible["ct"] {
		t.Error("degradation hid the ct component instead of lowering resolution")
	}
	for _, ev := range drain(fast) {
		if ev.Kind == EvPresentation {
			t.Fatal("fast member received a presentation push for the slow member's tuning")
		}
	}
	// Re-pinning the same level is a no-op: no redundant push.
	if changed, _ := r.SetMemberEnvironment("clinic", core.BandwidthVariable, core.BandwidthLow); changed {
		t.Error("idempotent re-pin reported a change")
	}
	if evs := drain(slow); len(evs) != 0 {
		t.Errorf("idempotent re-pin delivered %d events", len(evs))
	}
	// Unknown member errors.
	if _, err := r.SetMemberEnvironment("ghost", core.BandwidthVariable, core.BandwidthLow); err == nil {
		t.Error("unknown member accepted")
	}
}

// Regression for the refund audit: a consumer that abandons a
// member channel with undrained events (the server's failed-writer exit)
// leaves queuedBytes charged; DrainRefund must return the budget to
// exactly zero.
func TestDrainRefundClearsAbandonedCharges(t *testing.T) {
	r := newRoom(t)
	r.SetPushBudget(1 << 20)
	m, _, _, err := r.Join(context.Background(), "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	other, _, _, _ := r.Join(context.Background(), "chatty")
	go func() {
		for range other.Events() {
		}
	}()
	for i := 0; i < 20; i++ {
		if err := r.Chat("chatty", "payload payload payload"); err != nil {
			t.Fatal(err)
		}
	}
	if m.QueuedBytes() == 0 {
		t.Fatal("no budget charged — test premise broken")
	}
	// The consumer dies without draining; the room detaches the member,
	// closing the channel with events still queued.
	if !r.Detach(m) {
		// grace disabled: detach degraded to leave; channel still closed.
		t.Log("detach degraded to leave (no grace configured)")
	}
	if m.DrainRefund() == 0 {
		t.Fatal("nothing drained from the abandoned channel")
	}
	if got := m.QueuedBytes(); got != 0 {
		t.Fatalf("queuedBytes = %d after DrainRefund, want 0 — phantom budget leak", got)
	}
	// A second call on the now-empty closed channel is a safe no-op.
	if n := m.DrainRefund(); n != 0 {
		t.Fatalf("second DrainRefund drained %d", n)
	}
}

// TestPresentationChargeMatchesRefund: the push budget charges a
// presentation its changed entries — the whole view a join returns, a
// few entries for a choice, nothing for a re-solve that moved nothing — and
// whatever it charged on the way in it refunds on the way out, through
// Consumed and through a shed alike, including the copy a shed turns into
// a whole view after the charge was first computed.
func TestPresentationChargeMatchesRefund(t *testing.T) {
	r := newRoom(t)
	r.SetPushBudget(1 << 20)
	ctx := context.Background()
	a, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	b, _, first, _ := r.Join(ctx, "bob")
	// take drains a member with the push path's refund and returns what
	// its one presentation was charged.
	take := func(m *Member) (charged int64) {
		t.Helper()
		for len(m.Events()) > 0 {
			ev := <-m.Events()
			if ev.Kind == EvPresentation {
				charged = ev.approxSize()
			}
			m.Consumed(ev)
		}
		if got := m.QueuedBytes(); got != 0 {
			t.Fatalf("%s: %d bytes still charged to an empty queue", m.Name, got)
		}
		return charged
	}
	take(a)
	take(b)
	joinedCharge := first.approxSize() // bob's join: made against the empty view

	if err := r.Choice(ctx, "alice", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	take(a)
	changed := take(b)
	if err := r.Choice(ctx, "alice", "labs", ""); err != nil { // retracts nothing: re-solved, unmoved
		t.Fatal(err)
	}
	take(a)
	empty := take(b)
	bare := (&Event{Room: r.Name, Actor: "alice"}).approxSize()
	if !(joinedCharge > changed && changed > empty && empty == bare) {
		t.Errorf("charges: whole view %d, a choice's change %d, an empty change %d (a bare event is %d)", joinedCharge, changed, empty, bare)
	}

	// Bob stops draining under a budget that holds a handful of events:
	// presentations are shed, the one delivered next turns whole, and the
	// refunds still return the charge to zero.
	r.SetPushBudget(1500)
	for i := 0; i < 30; i++ {
		if err := r.Choice(ctx, "alice", "ct", []string{"full", "segmented"}[i%2]); err != nil {
			t.Fatal(err)
		}
		take(a)
	}
	if b.Drops() == 0 {
		t.Fatal("nothing was shed from bob's queue — test premise broken")
	}
	wholeAgain := false
	for len(b.Events()) > 0 {
		ev := <-b.Events()
		wholeAgain = wholeAgain || (ev.Kind == EvPresentation && ev.Base == 0)
		b.Consumed(ev)
	}
	if !wholeAgain {
		t.Error("no whole presentation followed the shed ones")
	}
	if got := b.QueuedBytes(); got != 0 {
		t.Errorf("%d bytes still charged to bob's empty queue after sheds", got)
	}
}
