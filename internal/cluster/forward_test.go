package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/server"
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
// choice re-solved one Solved view by propagation and built no map.
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
	t.Logf("%v allocations, %.0f bytes per forwarded choice", allocs, float64(after.TotalAlloc-before.TotalAlloc)/(runs+1))
	if allocs > 60 {
		t.Errorf("a forwarded choice allocates %v times, want at most 60", allocs)
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
	// A negative slow bar keeps every request in the trace ring.
	h, sess := forwardedRoom(t, HarnessOptions{Server: server.Options{SlowThreshold: -1, Logf: func(string, ...any) {}}})
	if err := sess.Choice("ct", "segmented"); err != nil {
		t.Fatal(err)
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
		if err := c.Call(proto.MTraces, &proto.TracesReq{ID: id}, &resp); err != nil {
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
