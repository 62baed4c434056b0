package server

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
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
	if err := carol.CallCtx(context.Background(), proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", User: "carol"}, &resp); err != nil {
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
// next request works. Alice speaks raw protocol: a client sends a resume
// only from a fresh connection after a reconnect.
func TestRefusedResumeLeavesTheRoom(t *testing.T) {
	srv, addr, _ := testSystem(t)
	ctx := context.Background()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	alice := wire.NewClient(cc)
	defer alice.Close()
	var resynced, sawLast atomic.Bool
	alice.OnPush(func(method string, body wire.Body) {
		var ev room.Event
		if method != proto.MEvent || body.Decode(&ev) != nil {
			return
		}
		if ev.Resync {
			resynced.Store(true)
		}
		if ev.Kind == room.EvChoice && ev.Actor == "alice" && ev.Variable == "xray" {
			sawLast.Store(true)
		}
	})
	var joined proto.JoinRoomResp
	if err := alice.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice"}, &joined); err != nil {
		t.Fatal(err)
	}
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	choice := func(variable, value string) error {
		return alice.CallCtx(ctx, proto.MChoice, &proto.ChoiceReq{Room: "consult", User: "alice", Variable: variable, Value: value}, nil)
	}
	if err := choice("ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	var resp proto.JoinRoomResp
	if err := alice.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice", Resume: true, SinceSeq: joined.View.Seq}, &resp); err == nil {
		t.Fatal("a resume on the connection that holds the room was accepted")
	}
	if err := alice.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice"}, &resp); err == nil {
		t.Fatal("a second join on the connection that holds the room was accepted")
	}

	rs, ok := srv.lookupRoom("consult")
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
	if err := choice("xray", "full"); err != nil {
		t.Fatalf("alice's next choice: %v", err)
	}
	waitFor(t, sawLast.Load)
	if resynced.Load() {
		t.Error("alice's stream is flagged for a resync, and she lost nothing")
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
			errs <- c.CallCtx(context.Background(), proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: fmt.Sprintf("u%d", i)}, &resp)
		}()
	}
	ok := 0
	for i := 0; i < joins; i++ {
		if <-errs == nil {
			ok++
		}
	}
	rs, found := srv.lookupRoom("consult")
	if ok != 1 || !found {
		t.Fatalf("%d of %d racing joins on one connection succeeded (room built: %v)", ok, joins, found)
	}
	if got := rs.room.Members(); len(got) != 1 {
		t.Errorf("members after the race: %v", got)
	}
}

// TestDroppedRoomRefusesItsMembersRequests: a connection's membership
// holds the room it joined. After DropRoom the connection is closed, and
// a request that still arrives on its membership reaches the dropped
// room, which has no members and refuses it: the room rebuilt under the
// same name — here joined by the same user on another connection — sees
// none of it, no event and no evidence, and no minutes are saved.
func TestDroppedRoomRefusesItsMembersRequests(t *testing.T) {
	peers := make(chan *wire.Peer, 1)
	srv, addr, _ := testSystemOpts(t, Options{SessionGrace: 75 * time.Millisecond}, func(s *Server) {
		s.Register("test.peer", func(_ context.Context, p *wire.Peer, _ []byte) (any, error) {
			peers <- p
			return nil, nil
		})
	})
	ctx := context.Background()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	old := wire.NewClient(cc)
	defer old.Close()
	old.OnPush(func(string, wire.Body) {})
	var resp proto.JoinRoomResp
	if err := old.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice"}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := call(ctx, old, "test.peer"); err != nil {
		t.Fatal(err)
	}
	p := <-peers
	if !srv.DropRoom("consult") {
		t.Fatal("DropRoom found no room")
	}
	select {
	case <-old.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("the dropped room's member keeps its connection")
	}

	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := srv.lookupRoom("consult")
	if !ok {
		t.Fatal("the rebuilt room is not in the table")
	}
	// The old connection's requests, as its handlers would run them.
	if _, err := srv.handleChoice(ctx, p, &proto.ChoiceReq{Room: "consult", User: "alice", Variable: "ct", Value: "segmented"}); err == nil {
		t.Error("a choice on the dropped room's membership was accepted")
	}
	if _, err := srv.handleChat(ctx, p, &proto.ChatReq{Room: "consult", User: "alice", Text: "stale"}); err == nil {
		t.Error("a chat on the dropped room's membership was accepted")
	}
	if _, err := srv.handleSaveMinutes(ctx, p, &proto.SaveMinutesReq{Room: "consult", User: "alice"}); err == nil {
		t.Error("minutes were saved on the dropped room's membership")
	}
	if got := rs.room.Engine().Choices(); len(got) != 0 {
		t.Errorf("the rebuilt room holds evidence %v", got)
	}
	doc, err := srv.db.GetDocument("p1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Component("minutes-1"); err == nil {
		t.Error("the document gained a minutes component")
	}
	if err := sa.Chat("fresh"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, alice, func(ev room.Event) bool {
		if ev.Kind == room.EvChoice || ev.Kind == room.EvChat && ev.Text == "stale" {
			t.Fatalf("the rebuilt room announced the old connection's %v", ev.Kind)
		}
		return ev.Kind == room.EvChat && ev.Text == "fresh"
	})
}
