package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// TestEncodeOnceFanOut joins k clients to one room and checks the
// encode-once contract end to end with the push-path counters: a
// broadcast event costs exactly one encode and the other k-1 deliveries
// reuse the shared bytes, and so does the presentation a choice re-solves
// — the k members are one evidence class holding one view, so they are
// pushed one change, encoded once. One choice in a four-member room is 2
// encodes for 8 pushed events, the 0.25 the benchmark reports as
// server.push_encodes_per_event (5 and 0.625 while every member was
// encoded its own whole view).
func TestEncodeOnceFanOut(t *testing.T) {
	srv, addr, _ := testSystem(t)
	const k = 4
	clients := make([]*client.Client, k)
	sessions := make([]*client.Session, k)
	for i := range clients {
		c := dial(t, addr, fmt.Sprintf("u%d", i))
		s, _, err := c.Join("tumor-board", "p1", 0)
		if err != nil {
			t.Fatal(err)
		}
		clients[i], sessions[i] = c, s
	}
	// The counters move before the push, so a client that holds an event
	// has seen it counted: settled returns once every client holds, in
	// order, an event of each kind named, the first of them by actor.
	settled := func(actor string, kinds ...room.EventKind) []room.Event {
		last := make([]room.Event, k)
		for i, c := range clients {
			for j, kind := range kinds {
				last[i] = waitEvent(t, c, func(ev room.Event) bool {
					return ev.Kind == kind && (j > 0 || ev.Actor == actor)
				})
			}
		}
		return last
	}
	// A join reconfigures: its fan-out ends with everyone's presentation.
	settled(fmt.Sprintf("u%d", k-1), room.EvJoin, room.EvPresentation)

	for _, step := range []struct {
		name                   string
		act                    func() error
		kinds                  []room.EventKind
		check                  func(int, room.Event) bool
		events, encodes, saved uint64
	}{
		{"chat", func() error { return sessions[0].Chat("fan out once") },
			[]room.EventKind{room.EvChat},
			func(_ int, ev room.Event) bool { return ev.Text == "fan out once" },
			k, 1, k - 1},
		{"choice", func() error { return sessions[0].Choice("ct", "segmented") },
			[]room.EventKind{room.EvChoice, room.EvPresentation},
			func(i int, ev room.Event) bool {
				v := sessions[i].View().Outcome
				return ev.Base != 0 && len(ev.Changes) == 3 && v["ct"] == "segmented" && v["xray"] == "hidden" && !sessions[i].NeedsResync()
			},
			2 * k, 2, 2 * (k - 1)},
	} {
		before := srv.Stats().Counters()
		if err := step.act(); err != nil {
			t.Fatal(err)
		}
		for i, ev := range settled("u0", step.kinds...) {
			if !step.check(i, ev) {
				t.Errorf("%s: client %d ends on %+v", step.name, i, ev)
			}
		}
		after := srv.Stats().Counters()
		for _, c := range []struct {
			counter string
			want    uint64
		}{
			{CounterFanoutEvents, step.events},
			{CounterFanoutEncodes, step.encodes},
			{CounterEncodesSaved, step.saved},
		} {
			if got := after[c.counter] - before[c.counter]; got != c.want {
				t.Errorf("one %s across %d members moved %s by %d, want %d", step.name, k, c.counter, got, c.want)
			}
		}
	}
}

// TestGetCmpCacheHitsAcrossClients has two clients pull the same
// compression-layer prefix: the second request (and every repeat) must
// be served from the payload cache without a store fetch, and so must
// any other prefix of the same stream.
func TestGetCmpCacheHitsAcrossClients(t *testing.T) {
	srv, addr, rec := testSystem(t)
	a := dial(t, addr, "alice")
	b := dial(t, addr, "bob")
	imgA, layersA, err := a.GetCmp(rec.CmpID, 1)
	if err != nil {
		t.Fatal(err)
	}
	imgB, layersB, err := b.GetCmp(rec.CmpID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if layersA != layersB || imgA.W != imgB.W || imgA.H != imgB.H {
		t.Errorf("cached response differs: %dx%d/%d vs %dx%d/%d",
			imgA.W, imgA.H, layersA, imgB.W, imgB.H, layersB)
	}
	for i := range imgA.Pix {
		if imgA.Pix[i] != imgB.Pix[i] {
			t.Errorf("pixel %d differs between the cache fill and the cache hit", i)
			break
		}
	}
	if hits := srv.Stats().Counter(CounterObjCacheHits); hits == 0 {
		t.Error("second client's GetCmp missed the cache")
	}
	// A stream is two payloads: its layer directory and its bitstream.
	if misses := srv.Stats().Counter(CounterObjCacheMisses); misses != 2 {
		t.Errorf("cache misses = %d, want 2 (one store read per payload for both clients)", misses)
	}
	// A different layer prefix is a slice of the same cached stream.
	if _, layers2, err := a.GetCmp(rec.CmpID, 2); err != nil {
		t.Fatal(err)
	} else if layers2 <= layersA {
		t.Errorf("2-layer prefix is %d bytes, 1-layer prefix %d", layers2, layersA)
	}
	if misses := srv.Stats().Counter(CounterObjCacheMisses); misses != 2 {
		t.Errorf("cache misses after new prefix = %d, want still 2", misses)
	}
	if entries := srv.MetricsSnapshot().Gauges["cache.obj.entries"]; entries != 2 {
		t.Errorf("cache entries = %d, want 2 (one resident copy of the stream whatever the prefix)", entries)
	}
	// The payload reaches every client byte-identical to what the store
	// holds, whether it filled the cache or hit it.
	stored, err := srv.db.GetImage(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{a, b} {
		got, err := c.GetImageBytes(rec.CTID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stored.Data) {
			t.Errorf("image payload differs from the stored bytes: %d vs %d bytes", len(got), len(stored.Data))
		}
	}
}

// TestGetImageReadsItsWrites is the coherence property the digest-keyed
// cache gives by construction: a GetImage issued after an acknowledged
// PutImageTexts returns those texts, however many readers are filling
// or hitting the cache for the same object at the time. A cache that
// held anything mutable could serve the writer a response assembled
// before its write, by letting it join a reader's in-flight fill.
func TestGetImageReadsItsWrites(t *testing.T) {
	// The tiny cache holds no raster, so every GetImage is a store read
	// other requests can join.
	for name, cacheBytes := range map[string]int64{"default-cache": 0, "tiny-cache": 1} {
		t.Run(name, func(t *testing.T) {
			_, addr, rec := testSystemOpts(t, Options{CacheBytes: cacheBytes})
			getImage := func(c *wire.Client) (string, error) {
				var resp proto.GetImageResp
				err := c.Call(proto.MGetImage, &proto.GetImageReq{ID: rec.CTID}, &resp)
				return resp.Texts, err
			}
			dialRaw := func() *wire.Client {
				c, err := wire.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			const readers, writes = 4, 200
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer func() { close(stop); wg.Wait() }()
			for r := 0; r < readers; r++ {
				c := dialRaw()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := getImage(c); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			w := dialRaw()
			for i := 0; i < writes; i++ {
				want := fmt.Sprintf("findings %d", i)
				if err := w.Call(proto.MPutImageTexts, &proto.PutImageTextsReq{ID: rec.CTID, Texts: want}, nil); err != nil {
					t.Fatal(err)
				}
				if got, err := getImage(w); err != nil || got != want {
					t.Fatalf("GetImage after acknowledged PutImageTexts(%q) returned texts %q, %v", want, got, err)
				}
			}
		})
	}
}

// TestDocSnapshotReusedAcrossJoins checks the second joiner of a room
// is served the marshaled document from the per-room snapshot cache.
func TestDocSnapshotReusedAcrossJoins(t *testing.T) {
	srv, addr, _ := testSystem(t)
	a := dial(t, addr, "alice")
	if _, _, err := a.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	b := dial(t, addr, "bob")
	if _, _, err := b.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	if hits := srv.Stats().Counter(CounterDocCacheHits); hits == 0 {
		t.Error("second join rebuilt the document snapshot")
	}
}

// TestPushResponseOrderUnderLoad interleaves one client's RPC traffic
// (History calls) with a flood of pushed events from another member and
// checks the event stream stays in order: the batched per-peer writer
// must preserve FIFO between pushes and responses.
func TestPushResponseOrderUnderLoad(t *testing.T) {
	_, addr, _ := testSystem(t)
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
	const chats = 100
	var lastSeq atomic.Uint64
	var order atomic.Bool
	order.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range alice.Events() {
			if ev.Seq <= lastSeq.Load() {
				order.Store(false)
			}
			lastSeq.Store(ev.Seq)
			if ev.Kind == room.EvChat && ev.Text == "fin" {
				return
			}
		}
	}()
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < chats; i++ {
			if err := sb.Chat(fmt.Sprintf("note %d", i)); err != nil {
				errs <- err
				return
			}
		}
		errs <- sb.Chat("fin")
	}()
	for i := 0; i < 50; i++ {
		if _, err := sa.History(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("final chat never arrived")
	}
	if !order.Load() {
		t.Error("event Seq went backwards under concurrent push/response traffic")
	}
}

// failConn wraps a net.Conn so writes can be made to fail on demand
// while Close is a no-op: the read loop stays alive, so only the
// writer's failure path (memberSource.Abandon) — not disconnect
// eviction — can remove the member from its room.
type failConn struct {
	net.Conn
	fail *atomic.Bool
}

func (f *failConn) Write(b []byte) (int, error) {
	if f.fail.Load() {
		return 0, fmt.Errorf("injected write failure")
	}
	return f.Conn.Write(b)
}

func (f *failConn) Close() error { return nil }

// TestPushFailureLeavesRoom breaks one member's push channel and checks
// the failed writer's exit detaches the stranded membership, which then
// expires past the test grace into a real leave (the other member sees
// EvLeave) instead of keeping a ghost member until disconnect.
func TestPushFailureLeavesRoom(t *testing.T) {
	srv, addr, _ := testSystem(t)
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mallory joins over an in-process pipe whose server-side writes can
	// be failed without closing the connection.
	var fail atomic.Bool
	sc, cc := net.Pipe()
	go srv.ServeConn(&failConn{Conn: sc, fail: &fail})
	mallory := wire.NewClient(cc)
	defer mallory.Close()
	mallory.OnPush(func(string, wire.Body) {})
	var joinResp proto.JoinRoomResp
	if err := mallory.Call(proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", User: "mallory"}, &joinResp); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvJoin && ev.Actor == "mallory"
	})
	fail.Store(true)
	// Each chat is a broadcast kicking mallory's writer: the first one it
	// tries to write fails, and on its way out it abandons her membership,
	// which leaves the room on her behalf.
	deadline := time.After(5 * time.Second)
	left := make(chan room.Event, 1)
	go func() {
		left <- waitEvent(t, bob, func(ev room.Event) bool {
			return ev.Kind == room.EvLeave && ev.Actor == "mallory"
		})
	}()
	for i := 0; ; i++ {
		if err := sb.Chat(fmt.Sprintf("probe %d", i)); err != nil {
			t.Fatalf("chat %d: %v", i, err)
		}
		select {
		case <-left:
			return
		case <-deadline:
			t.Fatal("stranded membership never left the room after push failure")
		case <-time.After(50 * time.Millisecond):
		}
	}
}
