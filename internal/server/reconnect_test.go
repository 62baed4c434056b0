package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/netsim"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// fastRetry is a reconnect policy tuned for tests: tiny deterministic
// backoff, generous budget.
func fastRetry() client.Options {
	return client.Options{
		Reconnect:      true,
		MaxAttempts:    -1,
		Backoff:        client.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: -1},
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    5 * time.Second,
	}
}

// faultyClient dials through a netsim fault controller so the test can
// kill, partition or degrade the client's network at will.
func faultyClient(t *testing.T, f *netsim.Faults, addr, user string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.NewOverDialer(f.Dialer(addr), user, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collector tails a client's event stream on a background goroutine so
// events survive across reconnects for later inspection.
type collector struct {
	mu  sync.Mutex
	evs []room.Event
}

func collect(c *client.Client) *collector {
	col := &collector{}
	go func() {
		for ev := range c.Events() {
			col.mu.Lock()
			col.evs = append(col.evs, ev)
			col.mu.Unlock()
		}
	}()
	return col
}

func (col *collector) snapshot() []room.Event {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]room.Event(nil), col.evs...)
}

// waitFor polls pred against the collected events until it passes or the
// deadline fires.
func (col *collector) waitFor(t *testing.T, what string, pred func([]room.Event) bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if pred(col.snapshot()) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%s never observed; events: %v", what, col.snapshot())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestReconnectResumesAndReplaysExactlyMissedEvents is the acceptance
// test for the fault-tolerance work: kill the client's connection
// mid-session, hold the outage across a few failed redials while the
// other member keeps talking, then let the client back in. The client
// must redial with backoff, resume the same (user, room) session within
// the grace TTL, and replay exactly the missed events — verified by
// sequence numbers, with zero duplicates.
func TestReconnectResumesAndReplaysExactlyMissedEvents(t *testing.T) {
	srv, addr := testSystemWith(t, Options{SessionGrace: 5 * time.Second})
	faults := netsim.NewFaults()
	alice := faultyClient(t, faults, addr, "alice", fastRetry())
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	col := collect(alice)
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "bob's join", func(evs []room.Event) bool {
		for _, ev := range evs {
			if ev.Kind == room.EvJoin && ev.Actor == "bob" {
				return true
			}
		}
		return false
	})

	// Outage: the transport dies mid-session and the next two redial
	// attempts fail too, so bob's chatter lands while alice is away; the
	// link she comes back over is slower than the one she left.
	faults.SetLatency(2 * time.Millisecond)
	faults.FailDials(2)
	faults.KillAll()
	const missed = 5
	for i := 0; i < missed; i++ {
		if err := sb.Chat(fmt.Sprintf("missed %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Chat("fin"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "post-outage chat", func(evs []room.Event) bool {
		for _, ev := range evs {
			if ev.Kind == room.EvChat && ev.Text == "fin" {
				return true
			}
		}
		return false
	})

	// Exactness: every chat delivered exactly once, sequence numbers
	// strictly increasing across the reconnect.
	chats := map[string]int{}
	var lastSeq uint64
	for _, ev := range col.snapshot() {
		if ev.Seq != 0 {
			if ev.Seq <= lastSeq {
				t.Errorf("event Seq went %d -> %d across reconnect", lastSeq, ev.Seq)
			}
			lastSeq = ev.Seq
		}
		if ev.Kind == room.EvChat {
			chats[ev.Text]++
		}
	}
	for i := 0; i < missed; i++ {
		if n := chats[fmt.Sprintf("missed %d", i)]; n != 1 {
			t.Errorf("chat %q delivered %d times, want exactly 1", fmt.Sprintf("missed %d", i), n)
		}
	}
	if chats["fin"] != 1 {
		t.Errorf("chat \"fin\" delivered %d times", chats["fin"])
	}
	if sa.NeedsResync() {
		t.Error("complete resume left the session flagged for resync")
	}

	// The resumed session is fully live: alice's own traffic round-trips.
	if err := sa.Chat("back"); err != nil {
		t.Fatalf("chat after resume: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == "back" })

	rs := alice.ReconnectStats()
	if rs.Successes != 1 {
		t.Errorf("reconnect successes = %d, want 1", rs.Successes)
	}
	if rs.Attempts < 3 {
		t.Errorf("reconnect attempts = %d, want >= 3 (two injected dial failures)", rs.Attempts)
	}
	if rs.GaveUp != 0 {
		t.Errorf("gaveUp = %d", rs.GaveUp)
	}
	if n := srv.Stats().Counter(CounterReconnectResumes); n != 1 {
		t.Errorf("server %s = %d, want 1", CounterReconnectResumes, n)
	}
	if n := srv.Stats().Counter(CounterSessionResumed); n != 1 {
		t.Errorf("server %s = %d, want 1", CounterSessionResumed, n)
	}
	if n := srv.Stats().Counter(CounterSessionExpired); n != 0 {
		t.Errorf("server %s = %d, want 0 (resume beat the grace TTL)", CounterSessionExpired, n)
	}
}

// TestCallsFailFastWhileReconnecting checks in-flight API use during an
// outage returns the typed ErrReconnecting immediately instead of
// hanging, and works again once the connection is restored.
func TestCallsFailFastWhileReconnecting(t *testing.T) {
	_, addr := testSystemWith(t, Options{SessionGrace: 5 * time.Second})
	faults := netsim.NewFaults()
	alice := faultyClient(t, faults, addr, "alice", fastRetry())
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.FailDials(-1)
	faults.KillAll()
	deadline := time.After(5 * time.Second)
	for {
		start := time.Now()
		err := sa.Chat("into the void")
		if errors.Is(err, client.ErrReconnecting) {
			if d := time.Since(start); d > time.Second {
				t.Errorf("ErrReconnecting took %v, want fail-fast", d)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never saw ErrReconnecting, last err: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	faults.FailDials(0)
	deadline = time.After(5 * time.Second)
	for alice.ReconnectStats().Successes == 0 {
		select {
		case <-deadline:
			t.Fatal("client never reconnected after dials were allowed again")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := sa.Chat("back online"); err != nil {
		t.Fatalf("chat after reconnect: %v", err)
	}
}

// TestReconnectBudgetExhaustionClosesClient drops the network for good:
// after MaxAttempts failed redials the client gives up, closes, and
// reports the terminal state through typed errors and stats.
func TestReconnectBudgetExhaustionClosesClient(t *testing.T) {
	_, addr := testSystemWith(t, Options{SessionGrace: time.Second})
	faults := netsim.NewFaults()
	opts := fastRetry()
	opts.MaxAttempts = 3
	alice := faultyClient(t, faults, addr, "alice", opts)
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.FailDials(-1)
	faults.KillAll()
	deadline := time.After(5 * time.Second)
	for alice.ReconnectStats().GaveUp == 0 {
		select {
		case <-deadline:
			t.Fatal("client never gave up")
		case <-time.After(10 * time.Millisecond):
		}
	}
	rs := alice.ReconnectStats()
	if rs.Attempts != 3 {
		t.Errorf("attempts = %d, want exactly MaxAttempts=3", rs.Attempts)
	}
	if rs.Successes != 0 {
		t.Errorf("successes = %d", rs.Successes)
	}
	if err := sa.Chat("anyone?"); !errors.Is(err, client.ErrClosed) {
		t.Errorf("call after give-up = %v, want ErrClosed", err)
	}
}

// TestGraceExpiryFallsBackToFreshJoin holds the outage past the server's
// grace TTL: the session expires server-side, so the reconnect resumes
// as a fresh join and the client flags the session for resync.
func TestGraceExpiryFallsBackToFreshJoin(t *testing.T) {
	srv, addr := testSystemWith(t, Options{SessionGrace: 75 * time.Millisecond})
	faults := netsim.NewFaults()
	alice := faultyClient(t, faults, addr, "alice", fastRetry())
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.FailDials(-1)
	faults.KillAll()
	// Hold the outage until the server has expired the session (bob sees
	// alice leave), then let the client back in.
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvLeave && ev.Actor == "alice"
	})
	if err := sb.Chat("while you were gone"); err != nil {
		t.Fatal(err)
	}
	faults.FailDials(0)
	deadline := time.After(5 * time.Second)
	for alice.ReconnectStats().Successes == 0 {
		select {
		case <-deadline:
			t.Fatal("client never reconnected")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !sa.NeedsResync() {
		t.Error("fresh-join fallback did not flag the session for resync")
	}
	if n := srv.Stats().Counter(CounterReconnectRejoins); n != 1 {
		t.Errorf("%s = %d, want 1", CounterReconnectRejoins, n)
	}
	if n := srv.Stats().Counter(CounterSessionExpired); n != 1 {
		t.Errorf("%s = %d, want 1", CounterSessionExpired, n)
	}
	if n := srv.Stats().Counter(CounterReconnectResumes); n != 0 {
		t.Errorf("%s = %d, want 0 (session was gone)", CounterReconnectResumes, n)
	}
	// The rejoined session is live again.
	if err := sa.Chat("fresh start"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == "fresh start" })
}

// TestPartitionDeadlinesCallThenRecovers black-holes the network (no
// reset — pure silence) and checks the client-side call deadline turns
// the hang into an error; after the partition heals the same connection
// keeps working.
func TestPartitionDeadlinesCallThenRecovers(t *testing.T) {
	_, addr := testSystemWith(t, Options{SessionGrace: 5 * time.Second})
	faults := netsim.NewFaults()
	opts := fastRetry()
	opts.CallTimeout = 200 * time.Millisecond
	alice := faultyClient(t, faults, addr, "alice", opts)
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.Partition()
	start := time.Now()
	if err := sa.Chat("hello?"); err == nil {
		t.Fatal("call succeeded through a partition")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("partitioned call took %v, want bounded by the 200ms call timeout", d)
	}
	faults.Heal()
	// The transport never died, so the same connection serves new calls.
	deadline := time.After(5 * time.Second)
	for {
		if err := sa.Chat("healed"); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("calls never recovered after Heal")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestDropMidPushResumesWithoutLoss cuts the client's read side partway
// through the server's push stream: the wrapped connection delivers a
// partial frame and dies. The reconnect must replay the interrupted
// event — exactly once.
func TestDropMidPushResumesWithoutLoss(t *testing.T) {
	_, addr := testSystemWith(t, Options{SessionGrace: 5 * time.Second})
	faults := netsim.NewFaults()
	alice := faultyClient(t, faults, addr, "alice", fastRetry())
	if _, _, err := alice.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	col := collect(alice)
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The next few pushed bytes reach alice, then the transport resets
	// under the stream — a drop mid-push.
	faults.CutAfterRead(10)
	const chats = 4
	for i := 0; i < chats; i++ {
		if err := sb.Chat(fmt.Sprintf("push %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, "all pushes after mid-push drop", func(evs []room.Event) bool {
		n := 0
		for _, ev := range evs {
			if ev.Kind == room.EvChat {
				n++
			}
		}
		return n >= chats
	})
	counts := map[string]int{}
	for _, ev := range col.snapshot() {
		if ev.Kind == room.EvChat {
			counts[ev.Text]++
		}
	}
	for i := 0; i < chats; i++ {
		if n := counts[fmt.Sprintf("push %d", i)]; n != 1 {
			t.Errorf("chat %d delivered %d times, want exactly 1", i, n)
		}
	}
	if _, _, resets := faults.Stats(); resets == 0 {
		t.Error("cut never fired: the test exercised nothing")
	}
}

// BenchmarkE10ResumeVsRejoin measures what the resume path saves: a
// resuming session with an intact buffer skips the document snapshot
// transfer a fresh join pays. Reported per reconnect round trip.
func BenchmarkE10ResumeVsRejoin(b *testing.B) {
	bench := func(b *testing.B, resume bool) {
		db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		m, err := mediadb.Open(db)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Populate(m, "p1", 1); err != nil {
			b.Fatal(err)
		}
		srv, err := NewWith(m, Options{SessionGrace: 50 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(l)
		defer srv.Close()
		addr := l.Addr().String()
		// Establish the session to take over / supersede.
		seed, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		seed.OnPush(func(string, wire.Body) {})
		var resp proto.JoinRoomResp
		if err := seed.Call(proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice"}, &resp); err != nil {
			b.Fatal(err)
		}
		seed.Close()
		since := resp.View.Seq
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := wire.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			c.OnPush(func(string, wire.Body) {})
			req := proto.JoinRoomReq{Room: "consult", DocID: "p1", User: "alice"}
			if resume {
				req.Resume, req.SinceSeq = true, since
			} else {
				// A fresh join cannot supersede a still-live member, so each
				// rejoin round is a distinct user (what a resume-less client
				// effectively is to the room: a stranger who re-downloads).
				req.User = fmt.Sprintf("alice-%d", i)
			}
			var r proto.JoinRoomResp
			if err := c.Call(proto.MJoinRoom, &req, &r); err != nil {
				b.Fatal(err)
			}
			if resume && len(r.DocData) != 0 {
				b.Fatal("complete resume transferred the document snapshot")
			}
			if !resume && len(r.DocData) == 0 {
				b.Fatal("fresh join skipped the document snapshot")
			}
			c.Close()
		}
	}
	b.Run("resume", func(b *testing.B) { bench(b, true) })
	b.Run("rejoin", func(b *testing.B) { bench(b, false) })
}

// TestReconnectRotatesAcrossClusterEndpoints exercises the resolver
// path the cluster depends on: a client configured with several node
// endpoints — the first of them dead — must connect by rotating to a
// live one, and when its connection dies mid-session the supervisor
// must resume there, replaying missed events exactly once.
func TestReconnectRotatesAcrossClusterEndpoints(t *testing.T) {
	_, addr := testSystemWith(t, Options{SessionGrace: 5 * time.Second})
	// A dead endpoint: bound once so the port is real, then closed.
	deadL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadL.Addr().String()
	deadL.Close()

	faults := netsim.NewFaults()
	alice, err := client.NewOverResolver(faults.DialContext, []string{deadAddr, addr}, "alice", fastRetry())
	if err != nil {
		t.Fatalf("connect through endpoint rotation: %v", err)
	}
	t.Cleanup(func() { alice.Close() })
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	col := collect(alice)
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Chat("pre-drop"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "pre-drop chat", func(evs []room.Event) bool {
		for _, ev := range evs {
			if ev.Kind == room.EvChat && ev.Text == "pre-drop" {
				return true
			}
		}
		return false
	})

	// Kill alice's transport; her redial rotation may land on the dead
	// endpoint first but must come back around and resume.
	faults.KillAll()
	if err := sb.Chat("while-away"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, "replayed chat", func(evs []room.Event) bool {
		for _, ev := range evs {
			if ev.Kind == room.EvChat && ev.Text == "while-away" {
				return true
			}
		}
		return false
	})
	if alice.ReconnectStats().Successes == 0 {
		t.Error("supervisor never reconnected")
	}
	var chats []string
	var last uint64
	for _, ev := range col.snapshot() {
		if ev.Seq != 0 {
			if ev.Seq <= last {
				t.Fatalf("event seq went %d -> %d across endpoint rotation", last, ev.Seq)
			}
			last = ev.Seq
		}
		if ev.Kind == room.EvChat {
			chats = append(chats, ev.Text)
		}
	}
	if len(chats) != 2 || chats[0] != "pre-drop" || chats[1] != "while-away" {
		t.Fatalf("chats = %v, want exactly [pre-drop while-away]", chats)
	}
	if err := sa.Chat("back"); err != nil {
		t.Fatalf("chat after resume: %v", err)
	}
}
