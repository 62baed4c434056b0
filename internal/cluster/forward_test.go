package cluster

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// The forwarded request's path: what it allocates, end to end and in
// routing, and the trace id it keeps across the relay. The counting
// tests run on a harness whose suspicion timeout no scheduling hiccup
// reaches, so the live set stays put while they count, and they average
// over enough calls that what the heartbeats allocate meanwhile rounds
// away.

// forwardedRoom is one member of a room owned by n1, joined through n2
// with forwarding on: every call it makes is relayed.
func forwardedRoom(t *testing.T, o HarnessOptions) (*Harness, *client.Session) {
	t.Helper()
	o.Nodes, o.Forward, o.HeartbeatInterval, o.SuspectAfter = 3, true, 500*time.Millisecond, 2*time.Second
	h := startHarness(t, o)
	name := h.RoomOwnedBy("n1", "fwd")
	c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{h.ByID("n2").Addr}, "alice", fastFailover())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess, _, err := c.Join(name, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // the member's display
		for range c.Events() {
		}
	}()
	return h, sess
}

// TestForwardedChoiceAllocations counts one forwarded Session.Choice
// round trip, everything in the process together: the client, the
// ingress node's relay, the owner's request and push fan-out, the pushes
// relayed back, and the replication flush to the standby with its apply.
// Measured with go1.24 on linux/amd64: 103 allocations and about
// 8.1 KiB per choice while the standby's log was a resliced slice, the
// live set a sorted and joined slice per request, the standby pick a
// sort, a bounded call two contexts and a flush a fresh frame; 68 and
// about 4.8 KiB with the ring, the bitmask, the one-pass pick, the pooled
// timer and the cursor's kept frame; 60 and about 4.0 KiB once the owner's
// choice re-solved one Solved view by propagation and built no map; 46
// and about 2.2 KiB once each request worker kept its wire.Request, the
// relay's reply wait made no child context, a relayed push rode a pooled
// encoder instead of a copy, and a flush's segment list stopped escaping;
// 32 and about 1.25 KiB once each server read a request into a pooled
// frame and decoded it with a pooled decoder into the typed adapter's
// pooled value, and the standby decoded its frames' events into the
// array that value keeps; 30 once a room request on a joined connection
// stopped building a membership table and its map to find the one it
// has (the owner's handler); 28 and about 1.16 KiB once the router read
// the room's name where it lies in the frame instead of copying it (at
// the ingress node and at the owner).
func TestForwardedChoiceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	h, sess := forwardedRoom(t, HarnessOptions{})
	values := []string{"segmented", "full"}
	i := 0
	choose := func() {
		i++
		if err := sess.Choice("ct", values[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 { // grow the logs' rings and the pools to their steady size
		choose()
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, choose)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%v allocations, %.0f bytes per forwarded choice", allocs, bytes)
	if allocs > 28 {
		t.Errorf("a forwarded choice allocates %v times, want at most 28", allocs)
	}
	if bytes > 1.5*1024 {
		t.Errorf("a forwarded choice allocates %.0f bytes, want at most 1.5 KiB", bytes)
	}
	if m := h.ByID("n2").Node.Metrics(); m.Forwards < runs {
		t.Errorf("the choices were not relayed: %+v", m)
	}
}

// TestRoutingAllocatesNothing: at steady membership, reading the live
// set and placement (every routed request does) and picking a room's
// standby (every flush does) allocate nothing.
func TestRoutingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	h := startHarness(t, HarnessOptions{Nodes: 3, SuspectAfter: 2 * time.Second})
	n := h.ByID("n1").Node
	if a := testing.AllocsPerRun(2000, func() { n.view() }); a != 0 {
		t.Errorf("Node.view allocates %v times per call", a)
	}
	place, quorum := n.view()
	if !quorum || place.Len() != 3 {
		t.Fatalf("view over %v, quorum %v; want all three nodes", place.Nodes(), quorum)
	}
	if a := testing.AllocsPerRun(2000, func() { place.Standby("consult") }); a != 0 {
		t.Errorf("Placement.Standby allocates %v times per call", a)
	}
	if again, _ := n.view(); again != place {
		t.Error("an unchanged live set rebuilt the placement")
	}
}

// TestRoutedRoomAllocatesNothing: the router reads a routed request's
// room where it lies in the frame and ranks the owner over those bytes,
// so neither copies the name (two allocations per forwarded choice while
// RoomOf returned a string: one at the ingress node, one at the owner).
func TestRoutedRoomAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	place := NewPlacement([]string{"n1", "n2", "n3"})
	payload := wire.MarshalBody(&proto.ChoiceReq{Room: "consult", User: "alice", Variable: "ct", Value: "segmented"})
	var owner string
	a := testing.AllocsPerRun(2000, func() {
		name, ok := proto.RoomOf(proto.MChoice, payload)
		if !ok {
			t.Fatal("RoomOf found no room in a choice")
		}
		owner, _ = top2(place, name)
	})
	if a != 0 {
		t.Errorf("reading a routed request's room and owner allocates %v times", a)
	}
	if want := place.Owner("consult"); owner != want {
		t.Errorf("owner over the frame's bytes = %q, over the name = %q", owner, want)
	}
}

// TestLiveSetHoldsAtMost64Nodes: the live set is a uint64 bitmask over
// the configured nodes, so a configuration of more is refused.
func TestLiveSetHoldsAtMost64Nodes(t *testing.T) {
	peers := make(map[string]string)
	for i := 1; i < maxNodes; i++ {
		peers[fmt.Sprintf("p%d", i)] = fmt.Sprintf("127.0.0.1:%d", 7000+i)
	}
	full := Config{ID: "n0", Peers: peers}
	if err := full.normalize(); err != nil {
		t.Fatalf("%d nodes refused: %v", maxNodes, err)
	}
	peers["one-more"] = "127.0.0.1:6999"
	over := Config{ID: "n0", Peers: peers}
	if err := over.normalize(); err == nil {
		t.Fatalf("%d nodes accepted", maxNodes+1)
	}
}

// TestRelayKeepsTheTraceID: a request relayed to its room's owner
// crosses with the ingress request's trace id, so the owner's trace and
// the ingress node's share one id in sys.traces.
func TestRelayKeepsTheTraceID(t *testing.T) {
	h, sess := forwardedRoom(t, HarnessOptions{})
	// The owner refuses a value the variable does not have, and the trace
	// ring keeps every errored request: on the owner, and on the ingress
	// node that relayed the refusal back.
	if err := sess.Choice("ct", "no-such-value"); err == nil {
		t.Fatal("the owner accepted a value ct does not have")
	}
	// choices lists the room.choice traces a node's sys.traces returns,
	// all of them or those of one trace id.
	choices := func(node string, id uint64) []uint64 {
		conn, err := h.ClientFaults.DialContext(context.Background(), h.ByID(node).Addr)
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewClient(conn)
		defer c.Close()
		var resp proto.TracesResp
		if err := c.CallCtx(context.Background(), proto.MTraces, &proto.TracesReq{ID: id}, &resp); err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for _, tr := range resp.Traces {
			if tr.Method == proto.MChoice {
				ids = append(ids, tr.ID)
			}
		}
		return ids
	}
	ingress := choices("n2", 0)
	if len(ingress) != 1 {
		t.Fatalf("ingress node traced %d choices, want 1", len(ingress))
	}
	// The owner records its trace when its handler returns, which may be
	// just after the reply left.
	deadline := time.Now().Add(5 * time.Second)
	for len(choices("n1", ingress[0])) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("owner traced choices %v, none under the ingress request's id %d", choices("n1", 0), ingress[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyFrameAllocatesOnlyItsEventStrings: a standby applies a
// one-event incremental replication frame allocating nothing but the
// event's non-empty strings. The decode runs over the ReplicateReq the
// last frame decoded into (wire.Typed's pool), so the event lands in the
// array that value keeps and the room and document names it repeats cost
// nothing; the merge into a full replica log overwrites in place. The
// frame itself is the server's pooled buffer. Through the node's own
// handler, the only allocation more is the ReplicateResp it answers with.
func TestStandbyFrameAllocatesOnlyItsEventStrings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const name, runs = "standby-counted", 1000
	values := []string{"segmented", "full"}
	event := func(seq uint64) room.Event {
		return room.Event{Seq: seq, Room: name, Actor: "alice", Kind: room.EvChoice, Variable: "ct", Value: values[seq%2]}
	}
	strs := 0
	ev := reflect.ValueOf(event(1))
	for i := range ev.NumField() {
		if f := ev.Field(i); f.Kind() == reflect.String && f.Len() > 0 {
			strs++
		}
	}
	// Enough frames to fill a log's ring (1 024 events) and then count;
	// each of the two measurements below replays them from the first.
	frames := make([][]byte, 1100+runs+1)
	for i := range frames {
		seq := uint64(i + 1)
		frames[i] = wire.MarshalBody(&proto.ReplicateReq{Room: name, DocID: "p1", Seq: seq, Events: []room.Event{event(seq)}})
	}
	next := 0

	var kept proto.ReplicateReq
	var log room.Log
	apply := func() {
		if err := wire.DecodeBodyBytes(frames[next], &kept); err != nil {
			t.Fatal(err)
		}
		if err := log.Merge(kept.Events, kept.Seq, kept.Trimmed); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 1100 {
		apply()
	}
	a := testing.AllocsPerRun(runs, apply)
	t.Logf("%v allocations per applied frame (%d strings in its event)", a, strs)
	if a > float64(strs) {
		t.Errorf("decoding and merging a one-event frame allocates %v times, want at most the event's %d strings", a, strs)
	}

	h := startHarness(t, HarnessOptions{Nodes: 1})
	n := h.ByID("n1").Node
	handle := wire.Typed(n.handleReplicate)
	next = 0
	replicate := func() {
		if _, err := handle(context.Background(), nil, frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 1100 {
		replicate()
	}
	a = testing.AllocsPerRun(runs, replicate)
	t.Logf("%v allocations per frame through the node's handler", a)
	if a > float64(strs+1) {
		t.Errorf("the standby's handler allocates %v times per one-event frame, want at most %d: the event's strings and its answer", a, strs+1)
	}
	n.replMu.Lock()
	seq := n.replicas[name].log.Seq()
	n.replMu.Unlock()
	if want := uint64(next); seq != want {
		t.Errorf("the standby's replica is at seq %d, want %d", seq, want)
	}
}
