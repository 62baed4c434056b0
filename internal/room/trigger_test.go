package room

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
)

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// roomGoroutines counts r's live goroutines off the stack dump: those a
// function of this package created that run with r among their
// arguments (other tests' rooms may still be winding theirs down).
func roomGoroutines(r *Room) int {
	buf := make([]byte, 1<<20)
	self := []byte(fmt.Sprintf("(%p", r))
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by mmconf/internal/room.")) && bytes.Contains(g, self) {
			n++
		}
	}
	return n
}

// TestRoomWithoutTriggerOwnsNoGoroutine pins who starts the trigger
// dispatch goroutine: not New and not the events of a room with no
// trigger, but the first AddTrigger — once, however many follow — and
// Close ends it.
func TestRoomWithoutTriggerOwnsNoGoroutine(t *testing.T) {
	r := newRoom(t)
	alice, _, _, err := r.Join(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	drain(alice)
	if err := r.Chat("alice", "no rule listens"); err != nil {
		t.Fatal(err)
	}
	if err := r.Choice(context.Background(), "alice", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	if got := roomGoroutines(r); got != 0 {
		t.Fatalf("a room with no trigger started %d goroutines, want 0", got)
	}
	fired := make(chan struct{}, 1)
	for i := 0; i < 2; i++ {
		if _, err := r.AddTrigger(fmt.Sprintf("t%d", i), []EventKind{EvChat}, func(*Room, Event) error {
			select {
			case fired <- struct{}{}:
			default:
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Chat("alice", "now one does"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(3 * time.Second):
		t.Fatal("trigger never fired")
	}
	// The dispatch goroutine ran the trigger, so it is scheduled and
	// shows its receiver; it is parked on its channel by the time the
	// count settles.
	waitFor(t, "one goroutine for two triggers", func() bool { return roomGoroutines(r) == 1 })
	r.Close()
	waitFor(t, "no goroutine after Close", func() bool { return roomGoroutines(r) == 0 })
	// A closed room that never had a trigger closes too.
	newRoom(t).Close()
}

func TestTriggerFiresOnMatchingKind(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	drain(alice)

	// Rule: when any word search hits, surface the voice component as
	// audio for everyone (the natural telemedicine trigger).
	trig, err := r.AddTrigger("surface-voice", []EventKind{EvWordSearch}, func(r *Room, ev Event) error {
		if len(ev.Hits) == 0 {
			return nil
		}
		return r.SystemChoice("voice", "audio")
	})
	if err != nil {
		t.Fatalf("AddTrigger: %v", err)
	}
	// Force the voice away from audio first.
	if err := r.Choice(context.Background(), "alice", "voice", "transcript"); err != nil {
		t.Fatal(err)
	}
	hits := []voice.Hit{{Word: "urgent", Start: 0, End: 100, Score: 2}}
	if err := r.ShareSearch("alice", EvWordSearch, "urgent", hits); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trigger to fire", func() bool { return trig.Fired() >= 1 })
	// The system choice must land and flip the presentation back.
	waitFor(t, "system choice", func() bool {
		v, err := r.Engine().ViewFor("alice")
		return err == nil && v.Outcome["voice"] == "audio"
	})
	// The system event is in the change buffer with the trigger actor.
	found := false
	for _, ev := range r.History(0) {
		if ev.Kind == EvChoice && ev.Actor == triggerActor && ev.Variable == "voice" {
			found = true
		}
	}
	if !found {
		t.Error("trigger action missing from change buffer")
	}
}

func TestTriggerKindFilter(t *testing.T) {
	r := newRoom(t)
	r.Join(context.Background(), "alice")
	trig, err := r.AddTrigger("chat-only", []EventKind{EvChat}, func(r *Room, ev Event) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Choice(context.Background(), "alice", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	if err := r.Chat("alice", "hello"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "chat trigger", func() bool { return trig.Fired() == 1 })
	// The choice must not have fired it.
	time.Sleep(50 * time.Millisecond)
	if trig.Fired() != 1 {
		t.Errorf("fired = %d, want 1 (kind filter leaked)", trig.Fired())
	}
}

func TestTriggerNoCascade(t *testing.T) {
	r := newRoom(t)
	r.Join(context.Background(), "alice")
	trig, err := r.AddTrigger("echo", []EventKind{EvChat}, func(r *Room, ev Event) error {
		return r.SystemChat("echo: " + ev.Text)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Chat("alice", "ping"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo trigger", func() bool { return trig.Fired() >= 1 })
	time.Sleep(100 * time.Millisecond)
	if got := trig.Fired(); got != 1 {
		t.Fatalf("trigger fired %d times — system chat re-triggered it", got)
	}
	// Exactly one echo in the buffer.
	echoes := 0
	for _, ev := range r.History(0) {
		if ev.Kind == EvChat && ev.Actor == triggerActor {
			echoes++
		}
	}
	if echoes != 1 {
		t.Errorf("echoes = %d", echoes)
	}
}

func TestTriggerDeactivatesOnError(t *testing.T) {
	r := newRoom(t)
	r.Join(context.Background(), "alice")
	trig, err := r.AddTrigger("flaky", []EventKind{EvChat}, func(r *Room, ev Event) error {
		return fmt.Errorf("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Chat("alice", "one")
	waitFor(t, "first firing", func() bool { return trig.Fired() == 1 })
	waitFor(t, "deactivation", func() bool { return !trig.Active() })
	r.Chat("alice", "two")
	time.Sleep(50 * time.Millisecond)
	if trig.Fired() != 1 {
		t.Errorf("deactivated trigger fired again: %d", trig.Fired())
	}
}

func TestTriggerManagement(t *testing.T) {
	r := newRoom(t)
	if _, err := r.AddTrigger("", nil, func(*Room, Event) error { return nil }); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.AddTrigger("x", nil, nil); err == nil {
		t.Error("nil function accepted")
	}
	t1, _ := r.AddTrigger("a", nil, func(*Room, Event) error { return nil })
	t2, _ := r.AddTrigger("b", nil, func(*Room, Event) error { return nil })
	if got := r.Triggers(); len(got) != 2 || got[0].ID != t1.ID || got[1].ID != t2.ID {
		t.Errorf("Triggers = %v", got)
	}
	if err := r.RemoveTrigger(t1.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveTrigger(t1.ID); err == nil {
		t.Error("double remove accepted")
	}
	if got := r.Triggers(); len(got) != 1 || got[0].ID != t2.ID {
		t.Errorf("Triggers after remove = %v", got)
	}
}

func TestSystemChoiceRequiresMembers(t *testing.T) {
	r := newRoom(t)
	if err := r.SystemChoice("ct", "hidden"); err == nil {
		t.Error("system choice on empty room accepted")
	}
	r.Join(context.Background(), "alice")
	if err := r.SystemChoice("nosuch", "x"); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := r.SystemChoice("ct", "hidden"); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFloorControl(t *testing.T) {
	r := newRoom(t)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(alice)
	drain(bob)

	if err := r.StartBroadcast("ghost"); err == nil {
		t.Error("non-member presenter accepted")
	}
	if err := r.StartBroadcast("alice"); err != nil {
		t.Fatalf("StartBroadcast: %v", err)
	}
	if r.Broadcaster() != "alice" {
		t.Error("Broadcaster wrong")
	}
	if err := r.StartBroadcast("bob"); err == nil {
		t.Error("second broadcast accepted")
	}
	// Bob cannot change the presentation; alice can.
	if err := r.Choice(context.Background(), "bob", "ct", "hidden"); err == nil {
		t.Error("non-presenter choice accepted during broadcast")
	}
	if _, err := r.Operation(context.Background(), "bob", "ct", "zoom", "full", true); err == nil {
		t.Error("non-presenter operation accepted during broadcast")
	}
	if err := r.Choice(context.Background(), "alice", "ct", "segmented"); err != nil {
		t.Fatalf("presenter choice: %v", err)
	}
	// Bob's pushed presentation mirrors the presenter.
	sawMirror := false
	for _, ev := range drain(bob) {
		if ev.Kind == EvPresentation && shown(ev).Outcome["ct"] == "segmented" {
			sawMirror = true
		}
	}
	if !sawMirror {
		t.Error("bob did not receive the presenter's view")
	}
	// Content actions stay open to everyone.
	if err := r.Chat("bob", "question: lower lobe?"); err != nil {
		t.Errorf("chat blocked during broadcast: %v", err)
	}
	// Only the presenter stops the broadcast.
	if err := r.StopBroadcast("bob"); err == nil {
		t.Error("non-presenter stop accepted")
	}
	if err := r.StopBroadcast("alice"); err != nil {
		t.Fatalf("StopBroadcast: %v", err)
	}
	if err := r.StopBroadcast("alice"); err == nil {
		t.Error("double stop accepted")
	}
	// Bob regains the floor.
	if err := r.Choice(context.Background(), "bob", "ct", "full"); err != nil {
		t.Errorf("post-broadcast choice blocked: %v", err)
	}
}

func TestBroadcastEndsWhenPresenterLeaves(t *testing.T) {
	r := newRoom(t)
	r.Join(context.Background(), "alice")
	bob, _, _, _ := r.Join(context.Background(), "bob")
	drain(bob)
	if err := r.StartBroadcast("alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave("alice"); err != nil {
		t.Fatal(err)
	}
	if r.Broadcaster() != "" {
		t.Error("broadcast survived the presenter's departure")
	}
	sawStop := false
	for _, ev := range drain(bob) {
		if ev.Kind == EvBroadcastStop {
			sawStop = true
		}
	}
	if !sawStop {
		t.Error("broadcast-stop event not propagated")
	}
	if err := r.Choice(context.Background(), "bob", "ct", "hidden"); err != nil {
		t.Errorf("floor not released: %v", err)
	}
}

func TestBroadcastEventKindNames(t *testing.T) {
	if EvBroadcastStart.String() != "broadcast-start" || EvBroadcastStop.String() != "broadcast-stop" {
		t.Errorf("names: %s, %s", EvBroadcastStart, EvBroadcastStop)
	}
}

func TestMinutesSnapshotAndComponent(t *testing.T) {
	r := newRoom(t)
	base, _ := image.Phantom(32, 32, 1)
	r.RegisterRaster(11, base)
	alice, _, _, _ := r.Join(context.Background(), "alice")
	drain(alice)
	r.Chat("alice", "suspicious density upper lobe")
	r.ShareSearch("alice", EvWordSearch, "urgent", []voice.Hit{{Word: "urgent", Start: 1, End: 2, Score: 1}})
	if _, err := r.Annotate("alice", 11, image.TextElement, 5, 5, 0, 0, "lesion", 1); err != nil {
		t.Fatal(err)
	}
	m := r.Minutes()
	if len(m.Chat) != 1 || len(m.Searches) != 1 || len(m.Annotations[11]) != 1 {
		t.Fatalf("minutes = %+v", m)
	}
	tr := m.Transcript()
	for _, want := range []string{"suspicious density", "urgent", "lesion", "object 11"} {
		if !strings.Contains(tr, want) {
			t.Errorf("transcript missing %q:\n%s", want, tr)
		}
	}
	name, err := r.AddMinutesComponent("alice", tr)
	if err != nil {
		t.Fatalf("AddMinutesComponent: %v", err)
	}
	doc := r.Engine().Document()
	comp, err := doc.Component(name)
	if err != nil {
		t.Fatalf("minutes component missing: %v", err)
	}
	if string(comp.Presentations[0].Inline) != tr {
		t.Error("transcript not stored inline")
	}
	// The new component shows up in members' presentations.
	v, err := r.Engine().ViewFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome[name] != "text" || !v.Visible[name] {
		t.Errorf("minutes not presented: %v", v.Outcome[name])
	}
	// A second save gets a fresh name.
	name2, err := r.AddMinutesComponent("alice", "more")
	if err != nil || name2 == name {
		t.Errorf("second minutes name %q (%v)", name2, err)
	}
	if _, err := r.AddMinutesComponent("ghost", "x"); err == nil {
		t.Error("non-member save accepted")
	}
}

// TestSaveMinutesWhileRankingPrefetch saves minutes — a document edit —
// while another goroutine does what the QoS loop does between events:
// rank prefetch candidates and solve views, holding the engine's lock and
// not the room's. Under -race it fails if the edit runs outside that
// lock; without it, if a view solved before a save is served after it.
func TestSaveMinutesWhileRankingPrefetch(t *testing.T) {
	r := newRoom(t)
	ctx := context.Background()
	if _, _, _, err := r.Join(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Join(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Engine().PrefetchRank("bob"); err != nil {
				t.Error(err)
				return
			}
			if _, err := r.Engine().ViewFor("bob"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		name, err := r.AddMinutesComponent("alice", fmt.Sprint("minutes of sitting ", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, viewer := range []string{"alice", "bob"} {
			v, err := r.Engine().ViewFor(viewer)
			if err != nil {
				t.Fatal(err)
			}
			if v.Outcome[name] != "text" || !v.Visible[name] {
				t.Fatalf("%s's view after saving %s presents it as %q", viewer, name, v.Outcome[name])
			}
		}
	}
	close(stop)
	<-done
}
