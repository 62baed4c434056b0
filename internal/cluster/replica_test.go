package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mmconf/internal/document"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/workload"
)

// TestReplicationRefusesAnUnservableFrame: a standby merges every frame
// into its room.Log, which refuses one whose events are not strictly
// ascending within (trimmed, seq]. Such a frame was once taken and kept,
// and only the takeover's restore refused the log — after the replica
// was gone, so the new owner served the room from Seq 0 and resuming
// clients lost their replay. Here the bad frame is refused on arrival
// and the call fails, the owner's next whole-log frame lands, and a
// takeover then carries the old owner's sequence on.
func TestReplicationRefusesAnUnservableFrame(t *testing.T) {
	h := newHarness(t, 3, false)
	roomName := "tumor-board"
	owner := h.Owner(roomName)
	standby := h.ByID(NewPlacement(h.aliveIDs()).Standby(roomName))

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
	pre := []string{"m0", "m1", "m2"}
	for _, m := range pre {
		mustChat(t, sa, m)
	}
	colB.waitChats(t, pre...)
	seq := h.ownerSeq(t, roomName)
	h.waitReplicated(t, roomName, seq)

	held := func() (uint64, []room.Event) {
		standby.Node.replMu.Lock()
		defer standby.Node.replMu.Unlock()
		r := standby.Node.replicas[roomName]
		return r.log.Seq(), r.log.AppendSince(nil, 0)
	}
	sameLog := func(at string, seq uint64, events []room.Event, wantSeq uint64, want []room.Event) {
		t.Helper()
		if seq != wantSeq || len(events) != len(want) {
			t.Fatalf("%s: standby at seq %d with %d events, want %d with %d", at, seq, len(events), wantSeq, len(want))
		}
		for i := range want {
			if events[i].Seq != want[i].Seq || events[i].Kind != want[i].Kind || events[i].Text != want[i].Text {
				t.Fatalf("%s: standby event %d is %d (%v), want %d (%v)", at, i, events[i].Seq, events[i].Kind, want[i].Seq, want[i].Kind)
			}
		}
	}

	// 1. An event past the frame's own Seq: the standby refuses the frame
	// over the wire and keeps the log it had.
	beforeSeq, before := held()
	bad := &proto.ReplicateReq{Room: roomName, DocID: "p1", Seq: seq, Events: []room.Event{
		{Seq: seq - 1, Room: roomName, Kind: room.EvChat, Text: "stale"},
		{Seq: seq + 2, Room: roomName, Kind: room.EvChat, Text: "ahead of its seq"},
	}}
	var resp proto.ReplicateResp
	if err := owner.Node.callPeer(context.Background(), standby.ID, proto.MNodeReplicate, bad, &resp); err == nil {
		t.Fatal("the standby took a frame holding an event past its seq")
	}
	afterSeq, after := held()
	sameLog("after the refused frame", afterSeq, after, beforeSeq, before)

	// 2. The owner's whole-log frame, which a failed send makes its next
	// flush, lands: replicate reports the call's outcome, and the
	// standby then holds the owner's whole log at its seq. (The owner's
	// Replicated counter cannot tell: a flush the loop ran before onLoop
	// moves it too.)
	n := owner.Node
	var sendErr error
	n.onLoop(func() {
		st := n.cursor(roomName)
		st.sent = 0
		sendErr = n.replicate(roomName, standby.ID, st, n.position())
	})
	if sendErr != nil {
		t.Fatalf("the owner's whole-log frame did not land: %v", sendErr)
	}
	var whole proto.ReplicateReq
	if !owner.Node.srv.SnapshotRoomInto(&whole, roomName, 0) {
		t.Fatal("the owner lost the room")
	}
	gotSeq, got := held()
	sameLog("after the whole log", gotSeq, got, whole.Seq, whole.Events)

	// 3. The takeover seeds the room from that log: the events after it
	// continue the old owner's sequence, with no gap and no repeat.
	owner.Kill()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	post := []string{"m3", "m4", "m5"}
	for _, m := range post {
		mustChat(t, sa, m)
	}
	all := append(append([]string(nil), pre...), post...)
	colB.waitChats(t, all...)
	colB.assertExactChats(t, all...)
	if holder := h.waitSoleHolder(t, roomName); holder != standby.ID {
		t.Fatalf("room held by %s, want the standby %s", holder, standby.ID)
	}
	var taken proto.ReplicateReq
	if !standby.Node.srv.SnapshotRoomInto(&taken, roomName, 0) {
		t.Fatal("the new owner holds no room")
	}
	if taken.Seq <= whole.Seq || len(taken.Events) < len(whole.Events) {
		t.Fatalf("the new owner's log is at seq %d with %d events; the old owner's was at %d with %d",
			taken.Seq, len(taken.Events), whole.Seq, len(whole.Events))
	}
	sameLog("the new owner's log", whole.Seq, taken.Events[:len(whole.Events)], whole.Seq, whole.Events)
}

// standbyLogCap is the room log's bound, the most a replica holds.
const standbyLogCap = 1024

// sliceReplica is the reference a replica is checked against: the log
// as a plain slice, merged, trimmed and capped the obvious way.
type sliceReplica struct {
	events       []room.Event
	seq, trimmed uint64
}

func (m *sliceReplica) apply(req *proto.ReplicateReq) {
	var last uint64
	if len(m.events) > 0 {
		last = m.events[len(m.events)-1].Seq
	}
	for _, ev := range req.Events {
		if ev.Seq > last {
			m.events = append(m.events, ev)
			last = ev.Seq
		}
	}
	m.seq = max(m.seq, req.Seq)
	m.trimmed = max(m.trimmed, req.Trimmed)
	drop := 0
	for drop < len(m.events) && m.events[drop].Seq <= m.trimmed {
		drop++
	}
	if over := len(m.events) - drop - standbyLogCap; over > 0 {
		drop += over
	}
	if drop > 0 {
		m.trimmed = max(m.trimmed, m.events[drop-1].Seq)
		m.events = append([]room.Event(nil), m.events[drop:]...)
	}
}

// replicaOwner is the owner side of the property walk: its log, capped
// above the standby's bound so that one resend can overflow the
// standby's ring, with Seqs that skip where a presentation consumed one
// unbuffered. Its recent history, trimmed events included, makes frames
// with lagging marks.
type replicaOwner struct {
	events       []room.Event
	history      []room.Event
	seq, trimmed uint64
}

const replicaOwnerCap = standbyLogCap + standbyLogCap/2

func (o *replicaOwner) advance(rng *rand.Rand) {
	for k := 1 + rng.Intn(6); k > 0; k-- {
		o.seq++
		if rng.Intn(8) == 0 {
			continue // a Seq with no buffered event
		}
		ev := room.Event{Seq: o.seq, ObjectID: 7 * o.seq}
		o.events = append(o.events, ev)
		o.history = append(o.history, ev)
	}
	if len(o.history) > 2*replicaOwnerCap {
		o.history = append(o.history[:0], o.history[replicaOwnerCap:]...)
	}
	o.trimTo(o.trimmed)
}

// trimTo moves the owner's trim mark to at least seq and applies its cap.
func (o *replicaOwner) trimTo(seq uint64) {
	o.trimmed = max(o.trimmed, seq)
	drop := 0
	for drop < len(o.events) && (o.events[drop].Seq <= o.trimmed || len(o.events)-drop > replicaOwnerCap) {
		drop++
	}
	if drop > 0 {
		o.trimmed = max(o.trimmed, o.events[drop-1].Seq)
		o.events = o.events[drop:]
	}
}

// lagging is a frame whose trim mark lags the standby's by up to lag,
// carrying the events past that mark: what a new owner restored from an
// older replica may send.
func (o *replicaOwner) lagging(standbyTrimmed, lag uint64) *proto.ReplicateReq {
	f := &proto.ReplicateReq{Room: "walk", DocID: "rec-replica", Seq: o.seq, Trimmed: standbyTrimmed - min(standbyTrimmed, lag)}
	for _, ev := range o.history {
		if ev.Seq > f.Trimmed {
			f.Events = append(f.Events, ev)
		}
	}
	return f
}

// frame is what the owner sends a cursor at since.
func (o *replicaOwner) frame(since uint64) *proto.ReplicateReq {
	f := &proto.ReplicateReq{Room: "walk", DocID: "rec-replica", Seq: o.seq, Trimmed: o.trimmed}
	for _, ev := range o.events {
		if ev.Seq > since {
			f.Events = append(f.Events, ev)
		}
	}
	return f
}

// TestReplicaMatchesSliceModel walks seeded mixes of full resends,
// incremental frames that overlap what the standby holds, owner trims,
// and frames whose trim mark lags the standby's, hands each to a node's
// replication handler as a peer's call would, and holds the node's
// replica to the slice model after every frame: the same events in the
// same order, the same Seq and trim mark. Now and then a frame is sent
// with an event that breaks its ascent; the handler refuses it and the
// replica is unchanged. Now and then the replica seeds a room, which must
// accept it.
func TestReplicaMatchesSliceModel(t *testing.T) {
	doc, err := workload.MedicalRecord("rec-replica", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := newHarness(t, 1, false).Nodes[0].Node
	ctx := context.Background()
	held := func() (r replica, events []room.Event) {
		n.replMu.Lock()
		defer n.replMu.Unlock()
		if p := n.replicas["walk"]; p != nil {
			r = *p
		}
		return r, r.log.AppendSince(nil, 0)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			owner   replicaOwner
			model   sliceReplica
			refused int
		)
		for step := 0; step < 2500; step++ {
			owner.advance(rng)
			var f *proto.ReplicateReq
			switch op := rng.Intn(10); {
			case op == 0: // full resend
				f = owner.frame(0)
			case op == 1: // the owner trims ahead, and says so with or without events
				owner.trimTo(owner.trimmed + uint64(rng.Intn(int(owner.seq-owner.trimmed)+1)))
				f = owner.frame(model.seq)
				if rng.Intn(2) == 0 {
					f.Events = nil
				}
			case op == 2:
				f = owner.lagging(model.trimmed, uint64(rng.Intn(60)))
			case op == 3 && len(owner.events) > 1:
				// An event out of order: no room could serve the log.
				bad := owner.frame(0)
				i := 1 + rng.Intn(len(bad.Events)-1)
				bad.Events[i-1], bad.Events[i] = bad.Events[i], bad.Events[i-1]
				before, beforeEvents := held()
				if _, err := n.handleReplicate(ctx, nil, bad); err == nil {
					t.Fatalf("seed %d step %d: a frame with event %d before %d was taken",
						seed, step, bad.Events[i-1].Seq, bad.Events[i].Seq)
				}
				after, afterEvents := held()
				if after.log.Seq() != before.log.Seq() || after.log.Trimmed() != before.log.Trimmed() || len(afterEvents) != len(beforeEvents) {
					t.Fatalf("seed %d step %d: the refused frame changed the replica", seed, step)
				}
				refused++
				f = owner.frame(model.seq) // the owner's next flush
			default: // incremental, from a cursor at or a little behind the standby
				f = owner.frame(model.seq - min(model.seq, uint64(rng.Intn(40))))
			}
			resp, err := n.handleReplicate(ctx, nil, f)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			model.apply(f)
			r, events := held()
			if resp.Seq != model.seq || r.DocID != "rec-replica" || r.log.Seq() != model.seq || r.log.Trimmed() != model.trimmed || len(events) != len(model.events) {
				t.Fatalf("seed %d step %d: replica of %q at seq %d (acked %d) trimmed %d with %d events, model at %d, %d with %d",
					seed, step, r.DocID, r.log.Seq(), resp.Seq, r.log.Trimmed(), len(events), model.seq, model.trimmed, len(model.events))
			}
			for i := range events {
				if events[i].Seq != model.events[i].Seq || events[i].ObjectID != model.events[i].ObjectID {
					t.Fatalf("seed %d step %d: event %d is %d (object %d), model has %d (object %d)",
						seed, step, i, events[i].Seq, events[i].ObjectID, model.events[i].Seq, model.events[i].ObjectID)
				}
			}
			if step%500 == 499 {
				seedRoom(t, n, doc, &model, seed, step)
			}
		}
		if refused == 0 {
			t.Fatalf("seed %d: no frame was refused", seed)
		}
		// The next seed's walk starts from an empty replica.
		n.replMu.Lock()
		delete(n.replicas, "walk")
		n.replMu.Unlock()
	}
}

// seedRoom hands the replica to a room the way a new owner's first build
// does, through roomSeed, checks that room.Restore takes it and serves the
// model's log, and puts the replica back for the walk to go on.
func seedRoom(t *testing.T, n *Node, doc *document.Document, model *sliceReplica, seed int64, step int) {
	t.Helper()
	l, ok := n.roomSeed("walk")
	if !ok {
		t.Fatalf("seed %d step %d: roomSeed found no replica", seed, step)
	}
	n.replMu.Lock()
	_, stays := n.replicas["walk"]
	n.replicas["walk"] = &replica{DocID: doc.ID, log: l}
	n.replMu.Unlock()
	if stays {
		t.Fatalf("seed %d step %d: roomSeed left the replica behind a live room", seed, step)
	}
	fresh, err := room.New("walk", doc)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(l); err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	events, seq, trimmed := fresh.LogSince(nil, 0)
	if seq != model.seq || trimmed != model.trimmed || len(events) != len(model.events) {
		t.Fatalf("seed %d step %d: seeded room at seq %d trimmed %d with %d events, model at %d, %d with %d",
			seed, step, seq, trimmed, len(events), model.seq, model.trimmed, len(model.events))
	}
	for i := range events {
		if events[i].Seq != model.events[i].Seq {
			t.Fatalf("seed %d step %d: seeded room's event %d is %d, model has %d", seed, step, i, events[i].Seq, model.events[i].Seq)
		}
	}
}
