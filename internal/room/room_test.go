package room

import (
	"context"
	"testing"
	"time"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/workload"
)

// shown is the view a presentation made in the room leaves its member
// at, as maps.
func shown(ev Event) document.View { return ev.view.View() }

func newRoom(t *testing.T) *Room {
	t.Helper()
	doc, err := workload.MedicalRecord("rec", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Give the CT presentations a stored object id so freeze has a target.
	ct, _ := doc.Component("ct")
	for i := range ct.Presentations {
		if ct.Presentations[i].Name != "hidden" {
			ct.Presentations[i].ObjectID = 11
		}
	}
	r, err := New("consult-1", doc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// drain collects events until the channel is momentarily empty.
func drain(m *Member) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-m.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-time.After(50 * time.Millisecond):
			return out
		}
	}
}

func kinds(evs []Event) map[EventKind]int {
	out := map[EventKind]int{}
	for _, ev := range evs {
		out[ev.Kind]++
	}
	return out
}

func TestJoinLeaveAndPropagation(t *testing.T) {
	r := newRoom(t)
	alice, hist, view, err := r.Join(context.Background(), "alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(hist) != 0 {
		t.Errorf("first joiner got %d history events", len(hist))
	}
	if shown(view).Outcome["ct"] != "full" {
		t.Errorf("initial view: %v", shown(view).Outcome)
	}
	if _, _, _, err := r.Join(context.Background(), "alice"); err == nil {
		t.Error("duplicate join accepted")
	}
	bob, hist2, _, err := r.Join(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist2) == 0 {
		t.Error("second joiner got no catch-up history")
	}
	// Alice sees bob's join (plus her own join broadcast earlier).
	evs := drain(alice)
	if kinds(evs)[EvJoin] < 2 {
		t.Errorf("alice events: %v", kinds(evs))
	}
	if err := r.Leave("bob"); err != nil {
		t.Fatal(err)
	}
	evs = drain(alice)
	if kinds(evs)[EvLeave] != 1 {
		t.Errorf("alice did not see bob leave: %v", kinds(evs))
	}
	// Bob's channel drains its buffered tail, then closes.
	closed := false
	deadline := time.After(time.Second)
	for !closed {
		select {
		case _, ok := <-bob.Events():
			if !ok {
				closed = true
			}
		case <-deadline:
			t.Fatal("bob channel never closed")
		}
	}
	if err := r.Leave("bob"); err == nil {
		t.Error("double leave accepted")
	}
	if got := r.Members(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("Members = %v", got)
	}
}

func TestChoicePropagatesPresentation(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)
	if err := r.Choice(context.Background(), "alice", "ct", "segmented"); err != nil {
		t.Fatalf("Choice: %v", err)
	}
	bobEvs := drain(bob)
	k := kinds(bobEvs)
	if k[EvChoice] != 1 || k[EvPresentation] != 1 {
		t.Fatalf("bob events = %v", k)
	}
	for _, ev := range bobEvs {
		if ev.Kind == EvPresentation {
			if v := shown(ev); v.Outcome["ct"] != "segmented" || v.Outcome["xray"] != "hidden" {
				t.Errorf("bob presentation = %v", v.Outcome)
			}
			if shown(ev).Visible["xray"] {
				t.Error("hidden xray still visible")
			}
		}
	}
	if err := r.Choice(context.Background(), "ghost", "ct", "full"); err == nil {
		t.Error("non-member choice accepted")
	}
	if err := r.Choice(context.Background(), "alice", "ct", "nosuch"); err == nil {
		t.Error("invalid choice accepted")
	}
}

func TestOperationSharedAndPrivate(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)
	name, err := r.Operation(context.Background(), "alice", "ct", "segmentation", "full", false)
	if err != nil {
		t.Fatalf("Operation: %v", err)
	}
	bobEvs := drain(bob)
	sawOp := false
	for _, ev := range bobEvs {
		if ev.Kind == EvOperation {
			sawOp = true
			if ev.DerivedVar != name || ev.Private {
				t.Errorf("operation event = %+v", ev)
			}
		}
		if ev.Kind == EvPresentation {
			if shown(ev).Outcome[name] != cpnet.OpApplied {
				t.Errorf("bob's presentation lacks the shared operation: %v", shown(ev).Outcome[name])
			}
		}
	}
	if !sawOp {
		t.Fatal("operation not propagated")
	}
	// Private operation: announced, but bob's presentation has no such var.
	pname, err := r.Operation(context.Background(), "alice", "xray", "zoom", "icon", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range drain(bob) {
		if ev.Kind == EvPresentation {
			if _, leaked := shown(ev).Outcome[pname]; leaked {
				t.Error("private operation leaked into bob's outcome")
			}
		}
	}
	if _, err := r.Operation(context.Background(), "ghost", "ct", "zoom", "full", false); err == nil {
		t.Error("non-member operation accepted")
	}
}

func TestAnnotationsPropagate(t *testing.T) {
	r := newRoom(t)
	base, _ := image.Phantom(64, 64, 1)
	r.RegisterRaster(11, base)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)

	id, err := r.Annotate("alice", 11, image.TextElement, 5, 5, 0, 0, "lesion?", 1.0)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	bobEvs := drain(bob)
	found := false
	for _, ev := range bobEvs {
		if ev.Kind == EvAnnotate && ev.ObjectID == 11 && ev.Annotation.Text == "lesion?" {
			found = true
		}
	}
	if !found {
		t.Error("annotation not propagated to bob")
	}
	if len(r.Annotations(11)) != 1 {
		t.Errorf("annotations = %d", len(r.Annotations(11)))
	}
	rendered, err := r.Rendered(11)
	if err != nil {
		t.Fatal(err)
	}
	if rendered.W != 64 {
		t.Error("render size wrong")
	}
	if err := r.DeleteAnnotation("bob", 11, id); err != nil {
		t.Fatalf("DeleteAnnotation by partner: %v", err)
	}
	if len(r.Annotations(11)) != 0 {
		t.Error("annotation survived delete")
	}
	if err := r.DeleteAnnotation("bob", 11, id); err == nil {
		t.Error("double delete accepted")
	}
	if err := r.DeleteAnnotation("bob", 99, 1); err == nil {
		t.Error("delete on unannotated object accepted")
	}
	if _, err := r.Annotate("ghost", 11, image.TextElement, 0, 0, 0, 0, "x", 1); err == nil {
		t.Error("non-member annotate accepted")
	}
	if _, err := r.Annotate("alice", 11, image.AnnotationKind(9), 0, 0, 0, 0, "", 1); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := r.Rendered(12345); err == nil {
		t.Error("render of unregistered raster accepted")
	}
}

func TestFreezeDiscipline(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)
	if err := r.Freeze("alice", 11); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if r.FrozenBy(11) != "alice" {
		t.Error("FrozenBy wrong")
	}
	if err := r.Freeze("bob", 11); err == nil {
		t.Error("double freeze accepted")
	}
	// Bob cannot annotate or operate on the frozen object's component.
	if _, err := r.Annotate("bob", 11, image.LineElement, 0, 0, 5, 5, "", 1); err == nil {
		t.Error("annotate on frozen object accepted")
	}
	if _, err := r.Operation(context.Background(), "bob", "ct", "zoom", "full", false); err == nil {
		t.Error("operation on frozen component accepted")
	}
	// The holder still can.
	if _, err := r.Annotate("alice", 11, image.LineElement, 0, 0, 5, 5, "", 1); err != nil {
		t.Errorf("holder blocked: %v", err)
	}
	// Only the holder releases.
	if err := r.Release("bob", 11); err == nil {
		t.Error("non-holder release accepted")
	}
	if err := r.Release("alice", 11); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := r.Release("alice", 11); err == nil {
		t.Error("double release accepted")
	}
	// After release bob can operate again.
	if _, err := r.Operation(context.Background(), "bob", "ct", "zoom", "full", false); err != nil {
		t.Errorf("post-release operation failed: %v", err)
	}
	// Freeze auto-releases when the holder leaves.
	if err := r.Freeze("alice", 11); err != nil {
		t.Fatal(err)
	}
	r.Leave("alice")
	if r.FrozenBy(11) != "" {
		t.Error("freeze survived holder's departure")
	}
}

func TestCooperativeSearchAndChat(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)
	hits := []voice.Hit{{Word: "urgent", Start: 100, End: 200, Score: 2.5}}
	if err := r.ShareSearch("alice", EvWordSearch, "urgent", hits); err != nil {
		t.Fatalf("ShareSearch: %v", err)
	}
	if err := r.ShareSearch("alice", EvChoice, "x", nil); err == nil {
		t.Error("non-search kind accepted")
	}
	if err := r.ShareSearch("ghost", EvWordSearch, "x", nil); err == nil {
		t.Error("non-member search accepted")
	}
	if err := r.Chat("bob", "I agree with the finding"); err != nil {
		t.Fatalf("Chat: %v", err)
	}
	if err := r.Chat("ghost", "hi"); err == nil {
		t.Error("non-member chat accepted")
	}
	bobEvs := drain(bob)
	var gotSearch, gotChat bool
	for _, ev := range bobEvs {
		if ev.Kind == EvWordSearch && ev.Keyword == "urgent" && len(ev.Hits) == 1 {
			gotSearch = true
		}
		if ev.Kind == EvChat && ev.Text != "" {
			gotChat = true
		}
	}
	if !gotSearch {
		t.Error("search results not propagated")
	}
	if !gotChat {
		t.Error("chat not propagated")
	}
}

func TestHistoryCatchUp(t *testing.T) {
	r := newRoom(t)
	r.Join(context.Background(), "alice")
	r.Choice(context.Background(), "alice", "ct", "segmented")
	r.Chat("alice", "first")
	// A late joiner replays everything.
	_, hist, _, err := r.Join(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(hist)
	if k[EvChoice] != 1 || k[EvChat] != 1 {
		t.Errorf("history kinds = %v", k)
	}
	// Seq increases monotonically; History(since) filters.
	var last uint64
	for _, ev := range hist {
		if ev.Seq <= last {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	tail := r.History(last)
	for _, ev := range tail {
		if ev.Seq <= last {
			t.Errorf("History(since) returned old event %d", ev.Seq)
		}
	}
}

func TestSlowMemberLosesOldestEvents(t *testing.T) {
	r := newRoom(t)
	sloth, _, _, _ := r.Join(context.Background(), "sloth") // never drains during the flood
	active, _, _, _ := r.Join(context.Background(), "active")
	go func() {
		for range active.Events() {
		}
	}()
	// Flood more events than the sloth's queue can hold.
	const flood = memberQueueSize + 50
	for i := 0; i < flood; i++ {
		if err := r.Chat("active", "spam"); err != nil {
			t.Fatalf("chat %d: %v", i, err)
		}
	}
	// The sloth is still a member; its queue holds the newest events,
	// having shed the oldest.
	found := false
	for _, m := range r.Members() {
		if m == "sloth" {
			found = true
		}
	}
	if !found {
		t.Fatal("stalled member was evicted")
	}
	evs := drain(sloth)
	if len(evs) == 0 || len(evs) > memberQueueSize {
		t.Fatalf("sloth drained %d events", len(evs))
	}
	// The newest chat must be present; the earliest must have been shed.
	last := evs[len(evs)-1]
	first := evs[0]
	if last.Seq <= first.Seq {
		t.Error("queue order broken")
	}
	if first.Seq == 1 {
		t.Error("oldest event was not shed")
	}
}

func TestRoomValidation(t *testing.T) {
	doc, _ := workload.MedicalRecord("rec", 2)
	if _, err := New("", doc); err == nil {
		t.Error("empty room name accepted")
	}
	r, err := New("x", doc)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, _, _, err := r.Join(context.Background(), "alice"); err == nil {
		t.Error("join on closed room accepted")
	}
	if r.Engine() == nil {
		t.Error("Engine accessor nil")
	}
	if EvJoin.String() != "join" || EventKind(99).String() == "" {
		t.Error("EventKind names broken")
	}
}
