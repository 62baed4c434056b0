package server

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/client"
	"mmconf/internal/core"
	"mmconf/internal/media/image"
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
	srv, err = NewWith(m, Options{QoSInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.qos.bands = qos.Bands{LowMedium: 1 << 40, MediumHigh: 1 << 41, Hysteresis: 0.25}
	t.Cleanup(func() { srv.Close() })
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	return srv, m, cc, recs
}

// qosRig is qosServer over one record, p0, with a client on the pipe
// that joins p0's room with a media buffer. Object ids are per table: the
// record's CT is image 1 and its ct=lowres stream is stream 1.
type qosRig struct {
	srv *Server
	m   *mediadb.MediaDB
	c   *client.Client
	s   *client.Session
	rec *workload.PopulatedRecord
	// served counts the bytes the server has written to c.
	served atomic.Int64
}

func qosSystem(t *testing.T) *qosRig {
	t.Helper()
	r := &qosRig{}
	var cc net.Conn
	var recs []*workload.PopulatedRecord
	r.srv, r.m, cc, recs = qosServer(t, "p0")
	r.rec = recs[0]
	c := overConn(t, &readCounter{Conn: cc, n: &r.served}, "alice")
	r.c = c
	s, _, err := c.Join("consult", "p0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	// Generate enough response writes for the meter's confidence gate.
	for i := 0; i < 6; i++ {
		if _, _, err := c.ListDocuments(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// pipe is one more connection to the rig's server.
func (r *qosRig) pipe() net.Conn {
	sc, cc := net.Pipe()
	go r.srv.ServeConn(sc)
	return cc
}

// imageBytes is the size of an image object's stored payload.
func (r *qosRig) imageBytes(t *testing.T, id uint64) int64 {
	t.Helper()
	img, err := r.m.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(img.Data))
}

// waitBuffered waits until the client's media buffer holds want bytes.
func (r *qosRig) waitBuffered(t *testing.T, want int64) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); r.c.BufferStats().Bytes < want; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("media buffer holds %d bytes, want %d pushed", r.c.BufferStats().Bytes, want)
		}
	}
}

// waitDegraded waits for the presentation that pins the member's
// bandwidth level to low; the loop changes the view no further after it.
func (r *qosRig) waitDegraded(t *testing.T) {
	t.Helper()
	waitEvent(t, r.c, func(ev room.Event) bool {
		return ev.Kind == room.EvPresentation && r.s.View().Outcome[core.BandwidthVariable] == core.BandwidthLow
	})
}

// readCounter counts the bytes read through a connection into n.
type readCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c *readCounter) Read(b []byte) (int, error) {
	k, err := c.Conn.Read(b)
	c.n.Add(int64(k))
	return k, err
}

// The full adaptive loop, end to end: the server measures the member's
// connection, demotes its tuning level, re-solves the member's view with
// resolution degraded (the CT drops to lowres but stays visible), pushes
// the presentation, pre-pushes likely payloads into the client's buffer,
// and surfaces qos.* metrics in sys.stats.
func TestQoSAdaptiveDegradationEndToEnd(t *testing.T) {
	r := qosSystem(t)
	c, s, rec := r.c, r.s, r.rec
	r.waitDegraded(t)
	view := s.View()
	if got := view.Outcome["ct"]; got != "lowres" {
		t.Errorf("degraded ct = %s, want lowres", got)
	}
	if !view.Visible["ct"] {
		t.Error("degradation hid the ct instead of lowering resolution — resolution-before-components violated")
	}

	// Push-prefetch lands the CT in the client's media buffer without the
	// client ever fetching it, though stream 1, the degraded view's
	// ct=lowres, shares its id. The loop pushes images only, and the X-ray
	// is smaller than the CT: a buffer holding the CT's size holds the CT.
	r.waitBuffered(t, r.imageBytes(t, rec.CTID))

	// The metrics surface reports the loop's work. The tick counts a tune
	// change after the room has pushed the presentation it caused, and the
	// payload may have been prefetched on an earlier tick: this client can
	// be here before the count is.
	deadline := time.Now().Add(3 * time.Second)
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

	// A fetch of the pre-pushed CT is answered from the buffer.
	if _, _, err := c.GetImage(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if st := c.BufferStats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("fetch after push-prefetch: %+v, want 1 hit / 0 misses", st)
	}
}

// A payload the server pushed is not sent again: the client's next fetch
// of it is a round trip, and it decodes to the raster a client with no
// buffer fetches.
func TestQoSPushedImageIsNotSentAgain(t *testing.T) {
	r := qosSystem(t)
	// The loop pushes each object once, and the record's images are the CT
	// and the X-ray: once the view is degraded and both are held nothing
	// more arrives.
	r.waitDegraded(t)
	r.waitBuffered(t, r.imageBytes(t, r.rec.CTID)+r.imageBytes(t, r.rec.XrayID))
	before := r.served.Load()
	got, texts, err := r.c.GetImage(r.rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.served.Load() - before; n >= 1<<10 {
		t.Errorf("fetching the pushed CT made the server write %d bytes, want under 1 KiB", n)
	}
	plain := overConn(t, r.pipe(), "bob")
	want, wantTexts, err := plain.GetImage(r.rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || texts != wantTexts {
		t.Error("the pushed CT decodes differently from the fetched one")
	}
}

// A pushed image that changes afterwards is fetched afresh: new texts
// come with the round trip, and a new raster transfers because its digest
// no longer matches the pushed one.
func TestQoSChangedPushedImageTransfers(t *testing.T) {
	r := qosSystem(t)
	id := r.rec.CTID
	r.waitBuffered(t, r.imageBytes(t, id))

	rpc := wire.NewClient(r.pipe())
	t.Cleanup(func() { rpc.Close() })
	if err := rpc.CallCtx(context.Background(), proto.MPutImageTexts, &proto.PutImageTextsReq{ID: id, Texts: "lesion 8mm"}, nil); err != nil {
		t.Fatal(err)
	}
	pushed, texts, err := r.c.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	if texts != "lesion 8mm" {
		t.Errorf("texts after PutImageTexts = %q", texts)
	}

	// Replace the CT's raster in its row, as a re-acquisition would.
	next, err := image.Phantom(256, 256, 99)
	if err != nil {
		t.Fatal(err)
	}
	raster := next.Encode()
	want, err := image.Decode(raster)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.m.DB().PutBlob(raster)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.m.DB().Table(mediadb.ImageTable)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := tbl.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	row = slices.Clone(row)
	row[3] = h
	if err := tbl.Update(id, row); err != nil {
		t.Fatal(err)
	}
	if err := r.m.DB().ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	before := r.c.BufferStats()
	got, texts, err := r.c.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, pushed) {
		t.Error("GetImage after the raster changed returned the pushed bytes")
	}
	if texts != "lesion 8mm" {
		t.Errorf("texts after the raster changed = %q", texts)
	}
	if st := r.c.BufferStats(); st.Misses != before.Misses+1 {
		t.Errorf("changed raster: %+v after %+v, want one more transfer", st, before)
	}
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
	if err := rpc.CallCtx(context.Background(), proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p2", User: "alice", Buffered: true}, &join); err != nil {
		t.Fatal(err)
	}
	// Enough response writes for the meter's confidence gate; the member
	// then degrades to ct=lowres and the loop ranks its candidates.
	for i := 0; i < 6; i++ {
		if err := rpc.CallCtx(context.Background(), proto.MListDocuments, &proto.ListDocumentsReq{}, &proto.ListDocumentsResp{}); err != nil {
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

// The loop pushes prefetch payloads only to members whose client said on
// joining that it holds a media buffer: of two members of one room,
// measured alike, only the buffered one is pushed to, and
// qos.prefetch.bytes counts exactly what it received.
func TestQoSPrefetchPushesOnlyToBufferedMembers(t *testing.T) {
	srv, _, cc, recs := qosServer(t, "p1")
	rec := recs[0]
	sc2, cc2 := net.Pipe()
	go srv.ServeConn(sc2)
	var mu sync.Mutex
	received := make(map[string]int64)
	pushed := make(map[uint64]bool)
	for _, m := range []struct {
		conn     net.Conn
		user     string
		buffered bool
	}{{cc, "alice", true}, {cc2, "bob", false}} {
		rpc := wire.NewClient(m.conn)
		t.Cleanup(func() { rpc.Close() })
		user := m.user
		rpc.OnPush(func(method string, body wire.Body) {
			if method != proto.MPrefetchPush {
				return
			}
			var pp proto.PrefetchPush
			if err := body.Decode(&pp); err != nil {
				t.Errorf("prefetch push to %s: %v", user, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			received[user] += int64(len(pp.Data))
			if user == "alice" {
				pushed[pp.ObjectID] = true
			}
		})
		var join proto.JoinRoomResp
		if err := rpc.CallCtx(context.Background(), proto.MJoinRoom, &proto.JoinRoomReq{Room: "consult", DocID: "p1", User: user, Buffered: m.buffered}, &join); err != nil {
			t.Fatal(err)
		}
		// Enough response writes for the meter's confidence gate.
		for i := 0; i < 6; i++ {
			if err := rpc.CallCtx(context.Background(), proto.MListDocuments, &proto.ListDocumentsReq{}, &proto.ListDocumentsResp{}); err != nil {
				t.Fatal(err)
			}
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
			t.Fatalf("pushed %v to the buffered member, want both of the record's images", pushed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the ticks that follow rank again: nothing may reach bob.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if received["bob"] != 0 {
		t.Errorf("the member without a buffer was pushed %d bytes", received["bob"])
	}
	if got := srv.Stats().Counter(CounterQoSPrefetchBytes); got != uint64(received["alice"]) {
		t.Errorf("qos.prefetch.bytes = %d, the buffered member received %d", got, received["alice"])
	}
}
