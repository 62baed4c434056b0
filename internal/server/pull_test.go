package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// holdConn is the server's end of a pipe whose writes can be held: while
// held a Write blocks before a byte moves, as a socket's does when the
// client has stopped reading, and blocked says a Write is waiting. It
// counts the writes it was asked for — one per flush while the batch is
// scratch only, as small events are.
type holdConn struct {
	net.Conn
	blocked chan struct{}

	mu     sync.Mutex
	open   chan struct{} // nil while writes pass; closed on release
	writes int
}

func newHoldConn(c net.Conn) *holdConn {
	return &holdConn{Conn: c, blocked: make(chan struct{}, 1)}
}

func (h *holdConn) hold() {
	h.mu.Lock()
	h.open = make(chan struct{})
	h.mu.Unlock()
}

func (h *holdConn) release() {
	h.mu.Lock()
	close(h.open)
	h.open = nil
	h.mu.Unlock()
}

func (h *holdConn) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.writes
}

func (h *holdConn) Write(b []byte) (int, error) {
	h.mu.Lock()
	h.writes++
	open := h.open
	h.mu.Unlock()
	if open != nil {
		select {
		case h.blocked <- struct{}{}:
		default:
		}
		<-open
	}
	return h.Conn.Write(b)
}

// heldMember joins alice to "consult" over a holdConn and bob to the same
// room in process — no connection, so every frame the server writes and
// every writer counter it moves is alice's. Nobody reads bob's queue: a
// test that fills it empties it with DrainRefund. It returns once alice
// holds the presentation bob's join caused.
func heldMember(t *testing.T) (*Server, *holdConn, *client.Client, *room.Room, *room.Member) {
	t.Helper()
	srv, _, _ := testSystem(t)
	sc, cc := net.Pipe()
	hc := newHoldConn(sc)
	go srv.ServeConn(hc)
	alice := overConn(t, cc, "alice")
	if _, _, err := alice.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	rs, ok := srv.lookupRoom("consult")
	if !ok {
		t.Fatal("no room after a join")
	}
	bob, _, _, err := rs.room.Join(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	bob.DrainRefund()
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvJoin && ev.Actor == "bob" })
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvPresentation })
	return srv, hc, alice, rs.room, bob
}

// wedge holds alice's connection and has bob say something, and returns
// with her writer blocked in the write that carries it: every flush
// before that one is counted, that one is not, and nothing reaches her
// until release.
func wedge(t *testing.T, hc *holdConn, r *room.Room) {
	t.Helper()
	hc.hold()
	if err := r.Chat("bob", "wedge"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hc.blocked:
	case <-time.After(3 * time.Second):
		t.Fatal("the writer never tried to write the event it was kicked for")
	}
}

// TestChoiceLeavesInOneFlushPerMember pins what the pull buys on the
// wire: a choice's EvChoice and the EvPresentation it causes are both in
// the member's queue when the writer comes for them, so they leave in one
// flush — one write — not one each. Writes are held while the choice is
// made so that "when the writer comes" is not a matter of scheduling.
func TestChoiceLeavesInOneFlushPerMember(t *testing.T) {
	srv, hc, alice, r, _ := heldMember(t)
	wedge(t, hc, r)
	flushes := srv.Stats().Counter(wire.CounterWriterFlushes)
	messages := srv.Stats().Counter(wire.CounterWriterMessages) // the wedged chat is counted: encoded, not yet flushed
	writes := hc.count()
	if err := r.Choice(context.Background(), "bob", "ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	hc.release()
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == "wedge" })
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvChoice && ev.Actor == "bob" })
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvPresentation })
	// She holds the presentation, so the write that carried it was asked
	// for: the count is final.
	if got := hc.count() - writes; got != 1 {
		t.Errorf("the choice's two events took %d writes after the wedged one, want 1", got)
	}
	// A flush is counted when its write returns, which she can be ahead of.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().Counter(wire.CounterWriterFlushes) < flushes+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f, m := srv.Stats().Counter(wire.CounterWriterFlushes)-flushes, srv.Stats().Counter(wire.CounterWriterMessages)-messages; f != 2 || m != 2 {
		t.Errorf("%s +%d for %s +%d, want the wedged flush and one more for the choice's 2 messages", wire.CounterWriterFlushes, f, wire.CounterWriterMessages, m)
	}
}

// TestHeldWriterBacklogIsTheMemberQueue checks where a slow connection's
// backlog sits when nothing but the member queue stands between
// the room and the socket: a writer blocked in a write stops draining,
// the member queue fills and the room sheds its oldest; when the writer
// comes back the first event it takes carries the Resync hint, and once
// it has taken them all nothing is charged to the member.
func TestHeldWriterBacklogIsTheMemberQueue(t *testing.T) {
	srv, hc, alice, r, bob := heldMember(t)
	wedge(t, hc, r)
	bob.DrainRefund()
	if depth := r.Gauges().MaxQueueDepth; depth != 0 {
		t.Fatalf("a queue holds %d events behind a writer that took the only one", depth)
	}
	const queue = 256 // room.memberQueueSize
	for i := 0; i < 2*queue; i++ {
		if err := r.Chat("bob", fmt.Sprintf("flood %d", i)); err != nil {
			t.Fatal(err)
		}
		bob.DrainRefund()
	}
	if g := r.Gauges(); g.MaxQueueDepth != queue || g.QueuedBytes == 0 {
		t.Errorf("behind a held writer the deepest queue holds %d events, %d bytes; want it full at %d", g.MaxQueueDepth, g.QueuedBytes, queue)
	}
	if got := srv.Stats().Counter(CounterQueueDrops); got != queue {
		t.Errorf("%d events shed for %d delivered to a queue of %d, want %d", got, 2*queue, queue, queue)
	}
	if _, queued := srv.rpc.WriteBacklog(); queued != 0 {
		t.Errorf("%d envelopes in the writer's queue: events must not wait there", queued)
	}
	hc.release()
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == "wedge" })
	first := waitEvent(t, alice, func(ev room.Event) bool { return ev.Kind == room.EvChat })
	if want := fmt.Sprintf("flood %d", queue); first.Text != want || !first.Resync {
		t.Errorf("first event after the gap is %q (Resync %v), want %q carrying the hint", first.Text, first.Resync, want)
	}
	waitEvent(t, alice, func(ev room.Event) bool { return ev.Text == fmt.Sprintf("flood %d", 2*queue-1) })
	deadline := time.Now().Add(3 * time.Second)
	for r.Gauges().QueuedBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("room gauges never settled: %+v", r.Gauges())
		}
		time.Sleep(time.Millisecond)
	}
}
