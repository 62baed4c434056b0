package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// The position-gate suite: a replication flush exports the room's dataset
// only when the store's change position moved since the last export that
// was shipped or found identical (sync.go). These tests count exports, so
// they run with a suspicion timeout no scheduling hiccup reaches — a
// liveness wobble marks every room dirty and a dirty room exports again,
// correctly, which would blur the counts. A crash is still noticed at
// once: the failed ping marks the peer dead without waiting the timeout out.

// gateFixture is a converged room on n1 whose standby n3 started empty
// and has adopted the dataset.
type gateFixture struct {
	h              *Harness
	owner, standby *HarnessNode
	room           string
	sess           *client.Session
}

func newGateFixture(t *testing.T) *gateFixture {
	t.Helper()
	h := startHarness(t, HarnessOptions{Nodes: 3, Unseeded: []string{"n3"}, SuspectAfter: 2 * time.Second})
	var err error
	f := &gateFixture{h: h, owner: h.ByID("n1"), standby: h.ByID("n3")}
	f.room = h.roomPlacedOn("n1", "n3", "gate")
	f.sess, _, err = clusterClient(t, h, "alice").Join(f.room, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, f.standby, "dataset adoption", func(m Metrics) bool { return m.SyncRowsAdopted > 0 })
	f.waitSyncs(t, 1)
	return f
}

// waitSyncs waits until the owner has sent n dataset frames and the
// room's cursor has caught up with the store (it is written just after
// the counter), so callers may rely on both.
func (f *gateFixture) waitSyncs(t *testing.T, n int64) {
	t.Helper()
	waitMetric(t, f.owner, fmt.Sprintf("%d dataset frames", n), func(m Metrics) bool { return m.ManifestSyncs >= n })
	deadline := time.Now().Add(5 * time.Second)
	for f.cursor().dataPos != f.owner.db.Position() {
		if time.Now().After(deadline) {
			t.Fatalf("cursor %+v never reached position %d", f.cursor(), f.owner.db.Position())
		}
		time.Sleep(time.Millisecond)
	}
}

// flush sends the room's standby a frame from the owner's replication
// loop, with the cursor the loop keeps and the store position given.
func (f *gateFixture) flush(target string, pos uint64) {
	n := f.owner.Node
	n.onLoop(func() { n.replicate(f.room, target, n.cursor(f.room), pos) })
}

// cursor copies the owner's replication cursor for the room, read on
// the loop that owns it.
func (f *gateFixture) cursor() repState {
	n := f.owner.Node
	var c repState
	n.onLoop(func() {
		if st := n.rep[f.room]; st != nil {
			c = *st
		}
	})
	return c
}

// drive sends n room events (alternating choices) and waits until the
// standby's replicated log has all of them.
func (f *gateFixture) drive(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.sess.Choice("ct", []string{"segmented", "full"}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	f.h.waitReplicated(t, f.room, f.h.ownerSeq(t, f.room))
}

// putTexts writes an image's texts on the owner through the RPC clients
// use (db.putImageTexts is not room-scoped: it runs where it lands).
func (f *gateFixture) putTexts(t *testing.T, id uint64, texts string) {
	t.Helper()
	conn, err := f.h.ClientFaults.DialContext(context.Background(), f.owner.Addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClient(conn)
	defer c.Close()
	if err := c.CallCtx(context.Background(), proto.MPutImageTexts, &proto.PutImageTextsReq{ID: id, Texts: texts}, nil); err != nil {
		t.Fatal(err)
	}
}

// assertStandbyMatches compares what the standby holds for the room —
// the replicated event log and the dataset rows — with the owner's.
func (f *gateFixture) assertStandbyMatches(t *testing.T) {
	t.Helper()
	var snap proto.ReplicateReq
	if !f.owner.Node.srv.SnapshotRoomInto(&snap, f.room, 0) {
		t.Fatalf("owner lost room %q", f.room)
	}
	sn := f.standby.Node
	sn.replMu.Lock()
	r := sn.replicas[f.room]
	var seq uint64
	var events int
	if r != nil {
		seq, events = r.log.Seq(), len(r.log.AppendSince(nil, 0))
	}
	sn.replMu.Unlock()
	if seq != snap.Seq || events != len(snap.Events) {
		t.Errorf("standby log at seq %d with %d events, owner at %d with %d", seq, events, snap.Seq, len(snap.Events))
	}
	want, err := f.owner.media.ExportDataset("p1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.standby.media.ExportDataset("p1")
	if err != nil {
		t.Fatalf("standby export: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("standby dataset differs from the owner's:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplicationUnchangedRoomExportsOnce: however many events a room
// carries, with no row written its dataset is exported once per (room,
// standby) — the forced sync of the first flush — and every later flush
// returns at the position check, while the log keeps replicating.
func TestReplicationUnchangedRoomExportsOnce(t *testing.T) {
	f := newGateFixture(t)
	// A second room on the same owner with the other standby: the
	// position is store-wide, the cursor is per room.
	room2 := f.h.roomPlacedOn("n1", "n2", "gate")
	if _, _, err := clusterClient(t, f.h, "bob").Join(room2, "p1", 0); err != nil {
		t.Fatal(err)
	}
	f.waitSyncs(t, 2)

	f.drive(t, 60)
	f.h.waitReplicated(t, room2, f.h.ownerSeq(t, room2))

	m := f.owner.Node.Metrics()
	if m.DatasetExports != 2 || m.ManifestSyncs != 2 {
		t.Errorf("two unchanged rooms: %d exports, %d dataset frames, want 2 and 2", m.DatasetExports, m.ManifestSyncs)
	}
	if m.DatasetUnchanged == 0 {
		t.Errorf("no flush returned at the position check: %+v", m)
	}
	stats := f.owner.Node.Server().Stats()
	if got := stats.Counter(CounterDatasetExports); got != uint64(m.DatasetExports) {
		t.Errorf("server stats show %d exports, metrics %d", got, m.DatasetExports)
	}
	if got := stats.Counter(CounterDatasetUnchanged); got < uint64(m.DatasetUnchanged) {
		t.Errorf("server stats show %d unchanged flushes, metrics %d", got, m.DatasetUnchanged)
	}
	f.assertStandbyMatches(t)
}

// TestReplicationRowWriteReexportsOnce: a write to a row of the room's
// dataset moves the position, so the next room event's flush exports
// again, finds the frame changed and ships it; the standby adopts the
// new texts, and the flushes after that are gated again.
func TestReplicationRowWriteReexportsOnce(t *testing.T) {
	f := newGateFixture(t)
	f.drive(t, 5)
	if m := f.owner.Node.Metrics(); m.DatasetExports != 1 {
		t.Fatalf("before the write: %d exports, want 1", m.DatasetExports)
	}

	const texts = "lesion, upper-left"
	f.putTexts(t, f.h.Record.CTID, texts)
	f.drive(t, 1)
	f.waitSyncs(t, 2)
	row, err := f.standby.media.GetImageRow(f.h.Record.CTID)
	if err != nil || row.Texts != texts {
		t.Fatalf("standby row after the re-export: texts %q, %v", row.Texts, err)
	}

	f.drive(t, 20)
	if m := f.owner.Node.Metrics(); m.DatasetExports != 2 || m.ManifestSyncs != 2 {
		t.Errorf("one row write: %d exports, %d dataset frames, want 2 and 2", m.DatasetExports, m.ManifestSyncs)
	}
	f.assertStandbyMatches(t)
}

// TestReplicationWriteDuringExportIsNotLost: the cursor holds the
// position read BEFORE the export. A write landing after that read — here
// between the read and the export; mid-export is the same to the cursor —
// leaves the cursor behind the store, so the next flush exports again
// instead of trusting a position the export may not have seen.
func TestReplicationWriteDuringExportIsNotLost(t *testing.T) {
	f := newGateFixture(t)
	n := f.owner.Node
	exports := func() int64 { return n.Metrics().DatasetExports }
	flush := func(pos uint64) { f.flush(f.standby.ID, pos) }
	write := func(texts string) {
		if err := f.owner.media.UpdateImageTexts(f.h.Record.CTID, texts); err != nil {
			t.Fatal(err)
		}
	}

	write("written before the position read") // moves it, so the flush exports
	pos := f.owner.db.Position()
	write("written after the position read")
	flush(pos)
	if got := f.cursor().dataPos; got != pos {
		t.Fatalf("cursor at %d after the export, want the position read before it (%d)", got, pos)
	}

	before := exports()
	flush(f.owner.db.Position())
	if exports() != before+1 {
		t.Fatalf("the flush after a write during the export did not export again")
	}
	if got, want := f.cursor().dataPos, f.owner.db.Position(); got != want {
		t.Fatalf("cursor at %d after the catch-up export, store at %d", got, want)
	}
	flush(f.owner.db.Position())
	if exports() != before+1 {
		t.Errorf("a flush with the position unmoved exported again")
	}
	f.assertStandbyMatches(t)
}

// TestReplicationGateBypasses: a forced resend, a failed send and a standby
// change each export again although the position has not moved, and a
// failed send leaves the cursor exactly where it was.
func TestReplicationGateBypasses(t *testing.T) {
	f := newGateFixture(t)
	n := f.owner.Node
	f.drive(t, 3)
	synced := f.cursor()
	if m := n.Metrics(); m.DatasetExports != 1 || m.ManifestSyncs != 1 {
		t.Fatalf("converged room: %d exports, %d syncs, want 1 and 1", m.DatasetExports, m.ManifestSyncs)
	}

	n.onLoop(n.markAllDirty)
	f.waitSyncs(t, 2)
	if m := n.Metrics(); m.DatasetExports != 2 {
		t.Errorf("forced resend: %d exports, want 2", m.DatasetExports)
	}
	if got := f.cursor(); got.standby != synced.standby || got.dataFP != synced.dataFP || got.dataPos != synced.dataPos {
		t.Errorf("forced resend of an unchanged room moved the cursor: %+v -> %+v", synced, got)
	}

	// A node this one has no link to: it is not the cursor's standby, so
	// the frame is a full one and exports, and the send fails.
	f.flush("ghost", f.owner.db.Position())
	if m := n.Metrics(); m.DatasetExports != 3 || m.ManifestSyncs != 2 {
		t.Errorf("failed send: %d exports, %d syncs, want 3 and 2", m.DatasetExports, m.ManifestSyncs)
	}
	if got := f.cursor(); got.standby != synced.standby || got.dataFP != synced.dataFP || got.dataPos != synced.dataPos {
		t.Errorf("failed send moved the cursor: %+v -> %+v", synced, got)
	}
	// The failure marked the room dirty; the retry re-sends in full.
	f.waitSyncs(t, 3)
	if m := n.Metrics(); m.DatasetExports != 4 {
		t.Errorf("retry after the failed send: %d exports, want 4", m.DatasetExports)
	}

	// Standby change: n3 dies, the room's standby becomes n2.
	f.standby.Kill()
	if err := f.h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.cursor().standby != "n2" {
		if time.Now().After(deadline) {
			t.Fatalf("dataset never synced to the new standby; cursor %+v, metrics %+v", f.cursor(), n.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := n.Metrics(); m.DatasetExports < 5 {
		t.Errorf("standby change: %d exports, want at least 5", m.DatasetExports)
	}
}

// TestReplicationUnchangedFlushAllocatesNothing: the gated check is one
// atomic load and a comparison on the cursor.
func TestReplicationUnchangedFlushAllocatesNothing(t *testing.T) {
	f := newGateFixture(t)
	n := f.owner.Node
	req := new(proto.ReplicateReq)
	if !n.srv.SnapshotRoomInto(req, f.room, f.cursor().sent) {
		t.Fatalf("owner lost room %q", f.room)
	}
	before := n.Metrics()
	// On the loop, which owns the cursor; averaged over enough runs that
	// a heartbeat allocating on another goroutine meanwhile rounds away.
	var allocs float64
	n.onLoop(func() {
		st := n.cursor(f.room)
		allocs = testing.AllocsPerRun(2000, func() { n.attachDataset(req, st, false, n.position()) })
	})
	if allocs != 0 {
		t.Errorf("the unchanged dataset check allocates %v times per call", allocs)
	}
	if len(req.Rows) != 0 {
		t.Errorf("an unchanged dataset was attached: %d rows", len(req.Rows))
	}
	after := n.Metrics()
	if after.DatasetExports != before.DatasetExports || after.DatasetUnchanged < before.DatasetUnchanged+2000 {
		t.Errorf("the measured calls were not gated: %+v -> %+v", before, after)
	}
}
