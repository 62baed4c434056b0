package server

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/client"
	"mmconf/internal/core"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// qosServer boots a server with a fast adaptive-QoS loop whose band
// edges sit far above anything a pipe can carry, so the measured rate
// deterministically classifies every connection as low — the degradation
// path without real network shaping. Its store holds one populated
// record per name in docs; conn is the client end of a net.Pipe to it.
func qosServer(t *testing.T, docs ...string) (srv *Server, m *mediadb.MediaDB, conn net.Conn, recs []*workload.PopulatedRecord) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if m, err = mediadb.Open(db); err != nil {
		t.Fatal(err)
	}
	for i, id := range docs {
		rec, err := workload.Populate(m, id, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	srv, err = NewWith(m, Options{
		QoSInterval: 10 * time.Millisecond,
		QoSBands:    qos.Bands{LowMedium: 1 << 40, MediumHigh: 1 << 41, Hysteresis: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	return srv, m, cc, recs
}

// qosSystem is qosServer with a client on the pipe, and p1 the second of
// two records. Object ids are per table and prefetch.Rank keeps one
// candidate per bare id (DESIGN §11): in a one-record store stream 1, the
// degraded view's ct=lowres, would hide image 1, the CT a next click
// needs. As the second record p1 has images 3 and 4 and stream 2.
func qosSystem(t *testing.T) (*Server, *client.Client, *workload.PopulatedRecord) {
	t.Helper()
	srv, _, cc, recs := qosServer(t, "p0", "p1")
	c, err := client.NewOverConn(cc, "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, recs[1]
}

// The full adaptive loop, end to end: the server measures the member's
// connection, demotes its tuning level, re-solves the member's view with
// resolution degraded (the CT drops to lowres but stays visible), pushes
// the presentation, pre-pushes likely payloads into the client's buffer,
// and surfaces qos.* metrics in sys.stats.
func TestQoSAdaptiveDegradationEndToEnd(t *testing.T) {
	srv, c, rec := qosSystem(t)
	s, _, err := c.Join("consult", "p1", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Generate enough response writes for the meter's confidence gate.
	for i := 0; i < 6; i++ {
		if _, _, err := c.ListDocuments(); err != nil {
			t.Fatal(err)
		}
	}
	waitEvent(t, c, func(ev room.Event) bool {
		return ev.Kind == room.EvPresentation && s.View().Outcome[core.BandwidthVariable] == core.BandwidthLow
	})
	view := s.View()
	if got := view.Outcome["ct"]; got != "lowres" {
		t.Errorf("degraded ct = %s, want lowres", got)
	}
	if !view.Visible["ct"] {
		t.Error("degradation hid the ct instead of lowering resolution — resolution-before-components violated")
	}

	// Push-prefetch lands the likeliest image payload in the session
	// buffer, digest-tagged, without the client ever fetching it.
	deadline := time.Now().Add(3 * time.Second)
	for !s.Buffer.Cache.Contains(rec.CTID) {
		if time.Now().After(deadline) {
			t.Fatal("CT payload never push-prefetched into the session buffer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := s.Buffer.Cache.Digest(rec.CTID); !ok {
		t.Error("pushed payload carries no digest tag")
	}

	// The metrics surface reports the loop's work. The tick counts a tune
	// change after the room has pushed the presentation it caused, and the
	// payload may have been prefetched on an earlier tick: this client can
	// be here before the count is.
	deadline = time.Now().Add(3 * time.Second)
	resp, err := c.Stats()
	for ; err == nil && resp.Counters["qos.tune_changes"] == 0 && time.Now().Before(deadline); resp, err = c.Stats() {
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gauges["qos.clients"] != 1 {
		t.Errorf("qos.clients = %d, want 1", resp.Gauges["qos.clients"])
	}
	if resp.Gauges["qos.level_low"] != 1 {
		t.Errorf("qos.level_low = %d, want 1 (levels: low=%d med=%d high=%d)",
			resp.Gauges["qos.level_low"], resp.Gauges["qos.level_low"],
			resp.Gauges["qos.level_medium"], resp.Gauges["qos.level_high"])
	}
	if resp.Counters["qos.tune_changes"] == 0 {
		t.Error("qos.tune_changes = 0 after a demotion")
	}
	if resp.Counters["qos.prefetch.pushes"] == 0 {
		t.Error("qos.prefetch.pushes = 0 after a buffered push")
	}
	if resp.Counters["qos.prefetch.bytes"] == 0 {
		t.Error("qos.prefetch.bytes = 0 after a buffered push")
	}

	// A demand fetch for the pre-pushed object is now a buffer hit.
	if _, err := s.Buffer.Demand(rec.CTID); err != nil {
		t.Fatalf("Demand after prefetch: %v", err)
	}
	if hits, _, _ := s.Buffer.Cache.Stats(); hits == 0 {
		t.Error("demand after push-prefetch did not hit the buffer")
	}
	_ = srv
}

// Teardown under flood: killing a member's connection while events are
// in flight runs the writer's exit (abandon: detach + drain-refund), and
// the room's queued-bytes gauge settles back to zero — no phantom
// push-budget charges survive the teardown.
func TestTeardownSettlesBudget(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = sb
	// Drop bob abruptly, then flood: deliveries charged to bob's queue
	// race his writer's exit, exercising the abandon path with events
	// still queued.
	bob.Close()
	for i := 0; i < 50; i++ {
		if err := sa.Chat("flood"); err != nil {
			t.Fatalf("chat %d: %v", i, err)
		}
	}
	// Bob's session detaches and (after the short test grace) expires
	// into a real leave that alice observes.
	waitEvent(t, alice, func(ev room.Event) bool {
		return ev.Kind == room.EvLeave && ev.Actor == "bob"
	})
	deadline := time.Now().Add(3 * time.Second)
	for {
		g := gaugesFor(t, addr, "consult")
		if g.QueuedBytes == 0 && g.Detached == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("room gauges never settled: %+v", g)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// gaugesFor reads one room's status through the stats RPC.
func gaugesFor(t *testing.T, addr, roomName string) room.Gauges {
	t.Helper()
	c := dial(t, addr, "observer")
	resp, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range resp.Rooms {
		if rs.Name == roomName {
			return room.Gauges{
				Members:      rs.Members,
				Detached:     rs.Detached,
				QueuedEvents: rs.QueuedEvents,
				QueuedBytes:  rs.QueuedBytes,
			}
		}
	}
	t.Fatalf("room %q not in stats", roomName)
	return room.Gauges{}
}

// Object ids are per table. In a store holding two records, patient
// two's ct=lowres presentation names stream 2 of CMP_OBJECTS_TABLE, and
// image 2 is patient one's X-ray: a prefetch that reads every candidate's
// id as an image id pushes another patient's picture. Every payload
// pushed to a throttled member of patient two's room must be one of that
// record's own images, under that row's digest.
func TestQoSPrefetchPushesOnlyTheRecordsOwnImages(t *testing.T) {
	_, m, cc, recs := qosServer(t, "p1", "p2")
	rec := recs[1]
	rpc := wire.NewClient(cc)
	t.Cleanup(func() { rpc.Close() })

	want := make(map[uint64]blob.Digest)
	for _, id := range []uint64{rec.CTID, rec.XrayID} {
		row, err := m.GetImageRow(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = row.Data.Digest
	}
	var mu sync.Mutex
	pushed := make(map[uint64]bool)
	rpc.OnPush(func(method string, body wire.Body) {
		if method != proto.MPrefetchPush {
			return
		}
		var pp proto.PrefetchPush
		if err := body.Decode(&pp); err != nil {
			t.Errorf("prefetch push: %v", err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		pushed[pp.ObjectID] = true
		if d, ok := want[pp.ObjectID]; !ok {
			t.Errorf("pushed object %d (%d bytes): not an image of this record (ct %d, xray %d)",
				pp.ObjectID, len(pp.Data), rec.CTID, rec.XrayID)
		} else if !bytes.Equal(pp.Digest, d[:]) || blob.Sum(pp.Data) != d {
			t.Errorf("pushed image %d under digest %x, its row holds %x", pp.ObjectID, pp.Digest, d[:])
		}
	})
	var join proto.JoinRoomResp
	if err := rpc.Call(proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p2", User: "alice"}, &join); err != nil {
		t.Fatal(err)
	}
	// Enough response writes for the meter's confidence gate; the member
	// then degrades to ct=lowres and the loop ranks its candidates.
	for i := 0; i < 6; i++ {
		if err := rpc.Call(proto.MListDocuments, &proto.ListDocumentsReq{}, &proto.ListDocumentsResp{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		done := pushed[rec.CTID] && pushed[rec.XrayID]
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pushed %v, want both of the record's images", pushed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the ticks that follow rank again: nothing else may arrive.
	time.Sleep(100 * time.Millisecond)
}
