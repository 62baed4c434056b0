package server

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// TestJoinSendsTheViewOnce: a join's response carries the member's first
// presentation — whole, under a view id — and the first presentation
// pushed to the member after it, the one the join's own reconfiguration
// makes, is a change against that id, not the whole view a second time.
func TestJoinSendsTheViewOnce(t *testing.T) {
	srv, addr, _ := testSystem(t)
	bob := dial(t, addr, "bob")
	if _, _, err := bob.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	carol := wire.NewClient(cc)
	defer carol.Close()
	pushed := make(chan room.Event, 64)
	carol.OnPush(func(method string, body wire.Body) {
		var ev room.Event
		if method == proto.MEvent && body.Decode(&ev) == nil && ev.Kind == room.EvPresentation {
			pushed <- ev
		}
	})
	var resp proto.JoinRoomResp
	if err := carol.Call(proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", User: "carol"}, &resp); err != nil {
		t.Fatal(err)
	}
	v := resp.View
	if v.Kind != room.EvPresentation || v.Base != 0 || v.View == 0 || v.Seq == 0 || len(v.Changes) == 0 {
		t.Fatalf("the response's view: %v, seq %d, base %d, view %d, %d entries; want a whole presentation under an id", v.Kind, v.Seq, v.Base, v.View, len(v.Changes))
	}
	select {
	case ev := <-pushed:
		if ev.Base != v.View || ev.Seq <= v.Seq {
			t.Errorf("the first pushed presentation: seq %d, base %d; want a change against view %d after seq %d", ev.Seq, ev.Base, v.View, v.Seq)
		}
		if len(ev.Changes) != 0 {
			t.Errorf("the join changed nothing in carol's view, and she was pushed %d entries", len(ev.Changes))
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no presentation was pushed after the join")
	}
}

// TestRefusedResumeLeavesTheRoom: a resume (or a join) on a connection
// that already holds the room is refused before the room is touched. The
// member keeps its place and its choices, nobody is told it left, and its
// next request works.
func TestRefusedResumeLeavesTheRoom(t *testing.T) {
	srv, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Choice("ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	if err := alice.ResumeSession(context.Background(), sa); err == nil {
		t.Fatal("a resume on the connection that holds the room was accepted")
	}
	if _, _, err := alice.Join("consult", "p1", 0); err == nil {
		t.Fatal("a second join on the connection that holds the room was accepted")
	}

	rs, ok := srv.reg.get("consult")
	if !ok {
		t.Fatal("the room is gone")
	}
	if got := rs.room.Members(); len(got) != 2 {
		t.Errorf("members after the refusals: %v", got)
	}
	if v, err := rs.room.Engine().ViewFor("alice"); err != nil || v.Outcome["ct"] != "segmented" {
		t.Errorf("alice's choice after the refusals: %v (%v)", v.Outcome["ct"], err)
	}
	// Everything bob was sent before his own chat comes back to him first.
	if err := sb.Chat("still here?"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, func(ev room.Event) bool {
		if ev.Kind == room.EvLeave && ev.Actor == "alice" {
			t.Fatal("bob was told alice left")
		}
		return ev.Kind == room.EvChat && ev.Actor == "bob"
	})
	if err := sa.Choice("xray", "full"); err != nil {
		t.Fatalf("alice's next choice: %v", err)
	}
	if sa.NeedsResync() {
		t.Error("alice's session is flagged, and it lost nothing")
	}
}

// TestConcurrentJoinsOnOneConnection: requests on one connection dispatch
// concurrently, and of several joins of one room racing on it exactly one
// gets the connection's slot; the others leave the room as they found it.
func TestConcurrentJoinsOnOneConnection(t *testing.T) {
	srv, _, _ := testSystem(t)
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := wire.NewClient(cc)
	defer c.Close()
	c.OnPush(func(string, wire.Body) {})
	const joins = 8
	errs := make(chan error, joins)
	for i := 0; i < joins; i++ {
		go func() {
			var resp proto.JoinRoomResp
			errs <- c.Call(proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: fmt.Sprintf("u%d", i)}, &resp)
		}()
	}
	ok := 0
	for i := 0; i < joins; i++ {
		if <-errs == nil {
			ok++
		}
	}
	rs, found := srv.reg.get("consult")
	if ok != 1 || !found {
		t.Fatalf("%d of %d racing joins on one connection succeeded (room built: %v)", ok, joins, found)
	}
	if got := rs.room.Members(); len(got) != 1 {
		t.Errorf("members after the race: %v", got)
	}
}
