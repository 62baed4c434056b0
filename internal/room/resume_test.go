package room

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestDetachResumeReplaysMissedEvents detaches a member, generates
// traffic while it is away, and checks Resume hands back exactly the
// missed events — sequence-contiguous, no duplicates, complete=true.
func TestDetachResumeReplaysMissedEvents(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Join(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	drain(alice)
	seen := r.Seq()

	if !r.Detach(alice) {
		t.Fatal("Detach returned false for a live member")
	}
	if got := r.Detached(); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("Detached() = %v", got)
	}
	// Alice's channel closes on detach; she stays a member of the engine.
	if _, ok := <-alice.Events(); ok {
		t.Error("detached member channel not closed")
	}
	for i := 0; i < 3; i++ {
		if err := r.Chat("bob", fmt.Sprintf("missed %d", i)); err != nil {
			t.Fatal(err)
		}
	}

	alice2, missed, view, complete, err := r.Resume(ctx, "alice", seen)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !complete {
		t.Error("complete = false with an intact buffer")
	}
	if len(missed) != 3 {
		t.Fatalf("missed = %d events, want 3: %v", len(missed), missed)
	}
	for i, ev := range missed {
		if ev.Kind != EvChat || ev.Text != fmt.Sprintf("missed %d", i) {
			t.Errorf("missed[%d] = %v %q", i, ev.Kind, ev.Text)
		}
		if ev.Seq != seen+uint64(i)+1 {
			t.Errorf("missed[%d].Seq = %d, want %d", i, ev.Seq, seen+uint64(i)+1)
		}
	}
	if len(shown(view).Visible) == 0 {
		t.Error("Resume returned an empty view")
	}
	if got := r.Detached(); len(got) != 0 {
		t.Errorf("still detached after resume: %v", got)
	}
	// The resumed member receives live traffic again.
	if err := r.Chat("bob", "welcome back"); err != nil {
		t.Fatal(err)
	}
	evs := drain(alice2)
	if n := kinds(evs)[EvChat]; n != 1 {
		t.Errorf("resumed member saw %d chats, want 1", n)
	}
}

// TestResumeReportsGapWhenBufferTrimmed forces the change buffer past
// capacity while detached: the resume must succeed but flag the replay
// as incomplete so the client falls back to a full resync.
func TestResumeReportsGapWhenBufferTrimmed(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Join(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	drain(alice)
	seen := r.Seq()
	r.Detach(alice)
	for i := 0; i < logSize+10; i++ {
		if err := r.Chat("bob", "flood"); err != nil {
			t.Fatal(err)
		}
	}
	_, missed, _, complete, err := r.Resume(ctx, "alice", seen)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("complete = true after the buffer trimmed past the detach point")
	}
	if len(missed) != logSize {
		t.Errorf("replay = %d events, want the %d still buffered", len(missed), logSize)
	}
}

// TestGraceExpiryEvictsSession lets the grace timer fire: the detached
// session turns into a real leave (EvLeave broadcast + expire hook).
func TestGraceExpiryEvictsSession(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(50 * time.Millisecond)
	expired := make(chan string, 1)
	r.OnSessionExpire(func(user string) { expired <- user })
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, _, _, err := r.Join(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	drain(bob)
	r.Detach(alice)
	select {
	case user := <-expired:
		if user != "alice" {
			t.Errorf("expired user = %q", user)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("grace expiry hook never fired")
	}
	deadline := time.After(2 * time.Second)
	for {
		evs := drain(bob)
		if kinds(evs)[EvLeave] > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no EvLeave after grace expiry")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if _, _, _, _, err := r.Resume(ctx, "alice", 0); !errors.Is(err, ErrNoSession) {
		t.Errorf("Resume after expiry = %v, want ErrNoSession", err)
	}
}

// TestJoinSupersedesDetachedSession checks a fresh Join under a detached
// name cancels the pending session instead of erroring or double-joining.
func TestJoinSupersedesDetachedSession(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(alice)
	alice2, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatalf("Join over detached session: %v", err)
	}
	if got := r.Detached(); len(got) != 0 {
		t.Errorf("detached sessions after supersede: %v", got)
	}
	if got := r.Members(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("Members() = %v", got)
	}
	// The fresh member is live.
	if err := r.Chat("alice", "hi"); err != nil {
		t.Fatal(err)
	}
	if n := kinds(drain(alice2))[EvChat]; n != 1 {
		t.Errorf("superseding member saw %d chats, want 1", n)
	}
}

// TestResumeTakesOverLiveMember covers the reconnect-races-the-server
// case: the client resumes before the room noticed the old transport
// died. Resume must hand the session to the new member and the stale
// handle's eventual Detach must be a no-op.
func TestResumeTakesOverLiveMember(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	drain(alice) // clear the buffered join broadcast
	seen := r.Seq()
	alice2, _, _, complete, err := r.Resume(ctx, "alice", seen)
	if err != nil {
		t.Fatalf("Resume over live member: %v", err)
	}
	if !complete {
		t.Error("takeover resume incomplete with intact buffer")
	}
	// The old handle's channel closed; the old connection's late Detach
	// must not touch the new session.
	if _, ok := <-alice.Events(); ok {
		t.Error("old member channel still open after takeover")
	}
	if r.Detach(alice) {
		t.Error("stale Detach claimed to detach the superseding member")
	}
	if got := r.Detached(); len(got) != 0 {
		t.Errorf("stale Detach parked the new session: %v", got)
	}
	if err := r.Chat("alice", "still here"); err != nil {
		t.Fatal(err)
	}
	if n := kinds(drain(alice2))[EvChat]; n != 1 {
		t.Errorf("new member saw %d chats, want 1", n)
	}
}

// TestDetachDisabledWithoutGrace checks grace<=0 keeps the old
// semantics: a detach is an immediate leave.
func TestDetachDisabledWithoutGrace(t *testing.T) {
	r := newRoom(t)
	// No SetGrace: default zero.
	ctx := context.Background()
	alice, _, _, err := r.Join(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r.Detach(alice) {
		t.Error("Detach parked a session with grace disabled")
	}
	if got := r.Members(); len(got) != 0 {
		t.Errorf("Members() = %v, want empty", got)
	}
	if _, _, _, _, err := r.Resume(ctx, "alice", 0); !errors.Is(err, ErrNoSession) {
		t.Errorf("Resume = %v, want ErrNoSession", err)
	}
}
