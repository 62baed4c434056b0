package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// The cluster acceptance suite. Everything here runs in-process over
// netsim transports, under -race, with seeded population — the failure
// schedules are explicit (kill/partition/drain calls), so runs are
// reproducible without real sleep-for-luck timing.

const harnessSeed = 7

func newHarness(t *testing.T, nodes int, forward bool) *Harness {
	t.Helper()
	return startHarness(t, HarnessOptions{Nodes: nodes, Forward: forward})
}

// startHarness starts a cluster under the suite's common settings (temp
// dir, harnessSeed, a 5 s session grace, logs to t unless o logs
// elsewhere) plus whatever o sets, waits for its views to converge and
// closes it with the test.
func startHarness(t *testing.T, o HarnessOptions) *Harness {
	t.Helper()
	o.Dir = t.TempDir()
	o.Seed = harnessSeed
	o.Server.SessionGrace = 5 * time.Second
	if o.Logf == nil {
		o.Logf = t.Logf
	}
	h, err := NewHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// programGoroutines returns the stack, by goroutine id, of every
// goroutine running code of this module.
func programGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "mmconf/") {
				out[strings.Fields(g)[1]] = g
				break
			}
		}
	}
	return out
}

// checkSettles is called before a test starts what it is to watch. Once
// the cleanups registered after the call have run (the clients closed,
// then the harness), no goroutine of this module started since the call
// may still run two seconds on.
func checkSettles(t *testing.T) {
	t.Helper()
	before := programGoroutines()
	t.Cleanup(func() {
		var left []string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			left = left[:0]
			for id, g := range programGoroutines() {
				if _, ok := before[id]; !ok {
					left = append(left, g)
				}
			}
			if len(left) == 0 || time.Now().After(deadline) {
				break
			}
		}
		for _, g := range left {
			t.Errorf("goroutine outlived the harness:\n%s", g)
		}
	})
}

// TestClosedHarnessLeavesNoGoroutine runs a cluster through a join, a
// choice, a chat and a leave, then closes the client and the harness:
// nothing started since the test began may still run.
func TestClosedHarnessLeavesNoGoroutine(t *testing.T) {
	checkSettles(t)
	before := len(programGoroutines())
	h := newHarness(t, 3, true)
	c := clusterClient(t, h, "alice")
	s, _, err := c.Join("lifecycle", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Choice("ct", "segmented"); err != nil {
		t.Fatal(err)
	}
	mustChat(t, s, "bye")
	if err := s.LeaveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(programGoroutines()) <= before {
		t.Fatal("the cluster runs no goroutine: the check would pass on anything")
	}
}

// fastFailover is the client policy for failover tests: aggressive
// redial, bounded calls (a black-holed node must cost a timeout, not a
// hang), unlimited attempts.
func fastFailover() client.Options {
	return client.Options{
		Reconnect:      true,
		MaxAttempts:    -1,
		Backoff:        client.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: -1},
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    time.Second,
	}
}

// clusterClient connects through the harness's client fault domain with
// the full endpoint set.
func clusterClient(t *testing.T, h *Harness, user string) *client.Client {
	t.Helper()
	c, err := client.NewOverResolver(h.ClientFaults.DialContext, h.Addrs(), user, fastFailover())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collector tails a client's event stream so events survive reconnects
// for later inspection.
type collector struct {
	mu  sync.Mutex
	evs []room.Event
}

// collect tails c until the test ends: Client.Close leaves the event
// channel open, so ranging over it would never stop.
func collect(t *testing.T, c *client.Client) *collector {
	col := &collector{}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			select {
			case ev := <-c.Events():
				col.mu.Lock()
				col.evs = append(col.evs, ev)
				col.mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	return col
}

func (col *collector) snapshot() []room.Event {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]room.Event(nil), col.evs...)
}

// chats extracts the EvChat texts, in arrival order.
func (col *collector) chats() []string {
	var texts []string
	for _, ev := range col.snapshot() {
		if ev.Kind == room.EvChat {
			texts = append(texts, ev.Text)
		}
	}
	return texts
}

// waitChats blocks until the collector has seen every listed chat text.
func (col *collector) waitChats(t *testing.T, want ...string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		seen := make(map[string]bool)
		for _, text := range col.chats() {
			seen[text] = true
		}
		missing := 0
		for _, w := range want {
			if !seen[w] {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("chats %v never all arrived; got %v", want, col.chats())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// assertExactChats is the exactly-once check: the collector saw
// precisely the given texts, in order, each once, with strictly
// increasing sequence numbers.
func (col *collector) assertExactChats(t *testing.T, want ...string) {
	t.Helper()
	got := col.chats()
	if len(got) != len(want) {
		t.Fatalf("chat texts = %v, want exactly %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chat[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	var last uint64
	for _, ev := range col.snapshot() {
		if ev.Seq == 0 {
			continue
		}
		if ev.Seq <= last {
			t.Fatalf("event seq went %d -> %d: replay duplicated or reordered", last, ev.Seq)
		}
		last = ev.Seq
	}
}

// mustChat sends a chat, retrying through reconnects, redirects and
// handoffs until it lands.
func mustChat(t *testing.T, s *client.Session, text string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := s.Chat(text)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chat %q never landed: %v", text, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// roomHolders lists which nodes currently hold a live copy of room —
// the single-ownership assertion reads this.
func (h *Harness) roomHolders(name string) []string {
	var ids []string
	for _, hn := range h.Nodes {
		hn.mu.Lock()
		dead := hn.killed
		hn.mu.Unlock()
		if dead {
			continue
		}
		for _, r := range hn.Node.srv.Rooms() {
			if r == name {
				ids = append(ids, hn.ID)
			}
		}
	}
	return ids
}

// waitSoleHolder blocks until exactly one live node holds the room and
// returns its id.
func (h *Harness) waitSoleHolder(t *testing.T, name string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		holders := h.roomHolders(name)
		if len(holders) == 1 {
			return holders[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("room %q held by %v, want exactly one node", name, holders)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitReplicated blocks until the room's current standby has replicated
// the owner's log at least through minSeq — the precondition for a
// seq-exact failover (an async replica is allowed to trail between
// flushes; tests that kill the owner wait out the trail first).
func (h *Harness) waitReplicated(t *testing.T, name string, minSeq uint64) {
	t.Helper()
	standbyID := NewPlacement(h.aliveIDs()).Standby(name)
	if standbyID == "" {
		t.Fatalf("room %q has no standby", name)
	}
	standby := h.ByID(standbyID).Node
	deadline := time.Now().Add(5 * time.Second)
	for {
		standby.replMu.Lock()
		r := standby.replicas[name]
		var seq uint64
		if r != nil {
			seq = r.log.Seq()
		}
		standby.replMu.Unlock()
		if seq >= minSeq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby %s replica of %q at seq %d, want >= %d", standbyID, name, seq, minSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ownerSeq reads the owner's current log head for the room.
func (h *Harness) ownerSeq(t *testing.T, name string) uint64 {
	t.Helper()
	var snap proto.ReplicateReq
	if !h.Owner(name).Node.srv.SnapshotRoomInto(&snap, name, 0) {
		t.Fatalf("owner of %q holds no live room", name)
	}
	return snap.Seq
}

// TestOwnerRoutingUnderRedirects: one room per node, every client
// enters the cluster at node 1. Joins for rooms owned elsewhere must be
// redirected and each room served only by its rendezvous owner.
func TestOwnerRoutingUnderRedirects(t *testing.T) {
	h := newHarness(t, 3, false)
	for i, hn := range h.Nodes {
		roomName := h.RoomOwnedBy(hn.ID, "ward")
		c := clusterClient(t, h, fmt.Sprintf("dr-%d", i))
		s, _, err := c.Join(roomName, "p1", 0)
		if err != nil {
			t.Fatalf("join %q (owner %s): %v", roomName, hn.ID, err)
		}
		col := collect(t, c)
		mustChat(t, s, "rounds-"+hn.ID)
		col.waitChats(t, "rounds-"+hn.ID)
		if holder := h.waitSoleHolder(t, roomName); holder != hn.ID {
			t.Errorf("room %q held by %s, want owner %s", roomName, holder, hn.ID)
		}
		if i > 0 {
			// Rooms owned by n2/n3 were reached through a redirect: the
			// resolver enters at n1 (first endpoint).
			if got := c.ReconnectStats().Redirects; got == 0 {
				t.Errorf("client for %s-owned room followed no redirects", hn.ID)
			}
		}
	}
	var redirects int64
	for _, hn := range h.Nodes {
		redirects += hn.Node.Metrics().Redirects
	}
	if redirects < 2 {
		t.Errorf("cluster redirects = %d, want >= 2 (two rooms entered via a non-owner)", redirects)
	}
}

// TestForwardingServesThroughWrongNode: with Forward on, clients pinned
// to a non-owner are relayed transparently — the conversation flows
// (pushes included) while the room lives only on its owner.
func TestForwardingServesThroughWrongNode(t *testing.T) {
	h := newHarness(t, 3, true)
	owner := h.Nodes[1] // n2
	relay := h.Nodes[0] // n1
	roomName := h.RoomOwnedBy(owner.ID, "board")

	pinned := func(user string, opts client.Options) *client.Client {
		c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{relay.Addr}, user, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	alice := pinned("alice", fastFailover())
	bob := pinned("bob", fastFailover())
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatalf("alice join through relay: %v", err)
	}
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatalf("bob join through relay: %v", err)
	}
	colB := collect(t, bob)
	mustChat(t, sa, "consult-1")
	mustChat(t, sa, "consult-2")
	colB.waitChats(t, "consult-1", "consult-2")
	colB.assertExactChats(t, "consult-1", "consult-2")

	if holder := h.waitSoleHolder(t, roomName); holder != owner.ID {
		t.Errorf("room %q held by %s, want owner %s", roomName, holder, owner.ID)
	}
	if f := relay.Node.Metrics().Forwards; f < 4 {
		t.Errorf("relay forwards = %d, want >= 4 (two joins + two chats)", f)
	}
	if alice.ReconnectStats().Redirects != 0 {
		t.Errorf("client followed redirects in forward mode")
	}
}

// TestOwnerCrashResumesOnNewOwner is the acceptance centerpiece: a
// 3-node cluster serves a conversation, the room's owner is killed
// mid-session, and both members must end up on the new owner with the
// transcript exactly once — no duplicate, no gap, sequence numbers
// strictly increasing across the failover.
func TestOwnerCrashResumesOnNewOwner(t *testing.T) {
	checkSettles(t)
	h := newHarness(t, 3, false)
	roomName := "tumor-board"
	owner := h.Owner(roomName)

	alice := clusterClient(t, h, "alice")
	bob := clusterClient(t, h, "bob")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatal(err)
	}
	colA, colB := collect(t, alice), collect(t, bob)

	pre := []string{"m0", "m1", "m2", "m3", "m4"}
	for _, m := range pre {
		mustChat(t, sa, m)
	}
	colB.waitChats(t, pre...)
	// Let replication catch the log head, then crash the owner: the
	// failover must replay from the standby's copy with the same
	// sequence numbers.
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))
	owner.Kill()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	post := []string{"m5", "m6", "m7", "m8", "m9"}
	for _, m := range post {
		mustChat(t, sa, m)
	}
	all := append(append([]string(nil), pre...), post...)
	colB.waitChats(t, all...)
	colA.waitChats(t, all...)
	colB.assertExactChats(t, all...)
	colA.assertExactChats(t, all...)

	newOwner := h.waitSoleHolder(t, roomName)
	if newOwner == owner.ID {
		t.Fatalf("room still held by killed node %s", owner.ID)
	}
	if want := h.Owner(roomName).ID; newOwner != want {
		t.Errorf("room held by %s, want surviving rendezvous owner %s", newOwner, want)
	}
	if bob.ReconnectStats().Successes == 0 {
		t.Errorf("bob never reconnected, yet his server died")
	}
}

// TestPartitionHealsWithoutDoubleOwnership: the owner is partitioned
// away; the majority moves the room and keeps serving. When the
// partition heals, ownership reconciles back to a single node — the
// healed node's stale copy is superseded by the newer replicated log,
// never served alongside it.
func TestPartitionHealsWithoutDoubleOwnership(t *testing.T) {
	h := newHarness(t, 3, false)
	roomName := "icu-round"
	owner := h.Owner(roomName)

	alice := clusterClient(t, h, "alice")
	bob := clusterClient(t, h, "bob")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatal(err)
	}
	colB := collect(t, bob)
	mustChat(t, sa, "before")
	colB.waitChats(t, "before")
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))

	owner.Partition()
	// Black-holed connections hang silently; reset the clients' conns so
	// their supervisors redial immediately instead of waiting out call
	// timeouts one by one.
	h.ClientFaults.KillAll()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "during-1")
	mustChat(t, sa, "during-2")
	colB.waitChats(t, "before", "during-1", "during-2")
	if got := h.Owner(roomName).ID; got == owner.ID {
		t.Fatalf("majority still routes %q to partitioned node", roomName)
	}

	owner.Heal()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Ownership converges back to the full-set rendezvous owner; the
	// stale pre-partition copy must lose to the newer log.
	holder := h.waitSoleHolder(t, roomName)
	mustChat(t, sa, "after")
	colB.waitChats(t, "before", "during-1", "during-2", "after")
	colB.assertExactChats(t, "before", "during-1", "during-2", "after")
	if finalHolder := h.waitSoleHolder(t, roomName); finalHolder != h.Owner(roomName).ID {
		t.Errorf("room held by %s, want rendezvous owner %s (first holder after heal: %s)",
			finalHolder, h.Owner(roomName).ID, holder)
	}
}

// TestMinorityRejectsRoomRequests is the split-brain rejection check: a
// node that cannot see a cluster majority refuses room-scoped requests
// outright instead of serving what it can no longer own safely.
func TestMinorityRejectsRoomRequests(t *testing.T) {
	h := newHarness(t, 3, false)
	h.Nodes[2].Kill()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Two live of three is still a majority; now isolate n2 so n1 stands
	// alone.
	h.Nodes[1].Partition()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	opts := client.Options{ConnectTimeout: 2 * time.Second, CallTimeout: 2 * time.Second}
	c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{h.Nodes[0].Addr}, "alice", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, _, err = c.Join("er-consult", "p1", 0)
	if !errors.Is(err, wire.ErrUnavailable) {
		t.Fatalf("minority join error = %v, want %v", err, wire.ErrUnavailable)
	}
	if h.Nodes[0].Node.Metrics().Unavailable == 0 {
		t.Errorf("minority node counted no unavailable rejections")
	}

	// Heal: majority restored, the same node serves again.
	h.Nodes[1].Heal()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c2 := clusterClient(t, h, "bob")
	if _, _, err := c2.Join("er-consult", "p1", 0); err != nil {
		t.Fatalf("join after heal: %v", err)
	}
}

// TestDrainHandsOffOwnership: an orderly departure. The draining node
// pushes its rooms to their post-drain owners before shutting down, so
// members reconnect and continue with exact sequence continuity.
func TestDrainHandsOffOwnership(t *testing.T) {
	checkSettles(t)
	h := newHarness(t, 3, false)
	roomName := "discharge-plan"
	owner := h.Owner(roomName)

	alice := clusterClient(t, h, "alice")
	bob := clusterClient(t, h, "bob")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatal(err)
	}
	colB := collect(t, bob)
	mustChat(t, sa, "d0")
	mustChat(t, sa, "d1")
	colB.waitChats(t, "d0", "d1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = owner.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	mustChat(t, sa, "d2")
	mustChat(t, sa, "d3")
	colB.waitChats(t, "d0", "d1", "d2", "d3")
	colB.assertExactChats(t, "d0", "d1", "d2", "d3")
	holder := h.waitSoleHolder(t, roomName)
	if holder == owner.ID {
		t.Fatalf("room still held by drained node %s", owner.ID)
	}
	if want := h.Owner(roomName).ID; holder != want {
		t.Errorf("room held by %s, want post-drain owner %s", holder, want)
	}
}

// TestEvictionDisconnectsOnlyCurrentMembers: evicting a room (a hand-off
// or a newer replicated log drops it the same way) disconnects the
// connections that are its members at that moment, so their clients
// reconnect to the new owner. A connection that joined the room and left
// it, and is still a member of another room on the node, keeps its
// connection and that room.
func TestEvictionDisconnectsOnlyCurrentMembers(t *testing.T) {
	h := newHarness(t, 3, false)
	owner := h.ByID("n1")
	evicted, kept := h.RoomOwnedBy("n1", "evicted"), h.RoomOwnedBy("n1", "kept")
	ctx := context.Background()
	connect := func() *wire.Client {
		conn, err := h.ClientFaults.DialContext(ctx, owner.Addr)
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewClient(conn)
		c.OnPush(func(string, wire.Body) {})
		t.Cleanup(func() { c.Close() })
		return c
	}
	join := func(c *wire.Client, roomName, user string) {
		var resp proto.JoinRoomResp
		if err := c.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: roomName, DocID: "p1", User: user}, &resp); err != nil {
			t.Fatalf("%s joining %s: %v", user, roomName, err)
		}
	}
	member, former := connect(), connect()
	join(member, evicted, "alice")
	join(former, evicted, "bob")
	join(former, kept, "bob")
	if err := former.CallCtx(ctx, proto.MLeaveRoom, &proto.LeaveRoomReq{Room: evicted, User: "bob"}, nil); err != nil {
		t.Fatal(err)
	}

	owner.Node.evictRoom(evicted, "test eviction")
	select {
	case <-member.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("the evicted room's member keeps its connection")
	}
	if err := former.CallCtx(ctx, proto.MChat, &proto.ChatReq{Room: kept, User: "bob", Text: "still here"}, nil); err != nil {
		t.Fatalf("a connection that had left the evicted room lost its other room: %v", err)
	}
	select {
	case <-former.Done():
		t.Fatal("a connection that had left the evicted room was disconnected")
	default:
	}
}
