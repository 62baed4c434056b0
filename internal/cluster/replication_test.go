package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/room"
	"mmconf/internal/workload"
)

// The partial-dataset replication suite: nodes no longer need
// identically seeded databases. A node that starts with an empty CAS
// receives each standby room's dataset by manifest diff — rows plus
// chunk digests when they changed, payload bytes only for chunks it lacks
// — and converges to serving those rooms, media included, after
// failover.

// newReplHarness is newHarness with the listed nodes left unseeded.
func newReplHarness(t *testing.T, nodes int, unseeded ...string) *Harness {
	t.Helper()
	checkSettles(t)
	return startHarness(t, HarnessOptions{Nodes: nodes, Unseeded: unseeded})
}

// roomPlacedOn derives a room name (from prefix) that the full cluster
// places with the given owner and standby — so tests can aim a room's
// replication stream at a chosen node.
func (h *Harness) roomPlacedOn(owner, standby, prefix string) string {
	all := make([]string, len(h.Nodes))
	for i, hn := range h.Nodes {
		all[i] = hn.ID
	}
	place := NewPlacement(all)
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if place.Owner(name) == owner && place.Standby(name) == standby {
			return name
		}
	}
}

// waitMetric polls a node's metrics until cond accepts them.
func waitMetric(t *testing.T, hn *HarnessNode, what string, cond func(Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond(hn.Node.Metrics()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached %s; metrics %+v", hn.ID, what, hn.Node.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationSyncsDatasetToEmptyStandby: a room owned by a seeded
// node replicates to an unseeded standby. The standby must end up with
// the document and byte-identical media under the owner's object ids,
// paid for with pulled chunks — and a balanced refcount ledger.
func TestReplicationSyncsDatasetToEmptyStandby(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	if _, err := standby.media.GetDocument("p1"); err == nil {
		t.Fatalf("unseeded node started with the document")
	}
	roomName := h.roomPlacedOn("n1", "n3", "board")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")

	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0 && m.SyncChunkBytesPulled > 0
	})
	doc, err := standby.media.GetDocument("p1")
	if err != nil {
		t.Fatalf("standby GetDocument after sync: %v", err)
	}
	if doc.Title != h.Record.Doc.Title {
		t.Errorf("standby document title %q, want %q", doc.Title, h.Record.Doc.Title)
	}
	for _, id := range []uint64{h.Record.CTID, h.Record.XrayID} {
		want, err := owner.media.GetImage(id)
		if err != nil {
			t.Fatalf("owner GetImage(%d): %v", id, err)
		}
		got, err := standby.media.GetImage(id)
		if err != nil {
			t.Fatalf("standby GetImage(%d) after sync: %v", id, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("image %d differs between owner and standby", id)
		}
	}
	if _, err := standby.media.GetAudio(h.Record.VoiceID); err != nil {
		t.Errorf("standby GetAudio: %v", err)
	}
	if _, err := standby.media.GetCmp(h.Record.CmpID); err != nil {
		t.Errorf("standby GetCmp: %v", err)
	}
	if _, missing := standby.db.BlobStats(); missing != 0 {
		t.Errorf("standby has %d dangling blob references", missing)
	}
	// The owner counts the frame only once its call returned, which may
	// be after the standby's counters moved.
	waitMetric(t, owner, "a frame carrying the dataset", func(m Metrics) bool { return m.ManifestSyncs > 0 })
	// No amplification: an empty store pulls exactly the payload bytes a
	// full copy of the record would move.
	ds, err := owner.media.ExportDataset("p1")
	if err != nil {
		t.Fatal(err)
	}
	var fullCopy int64
	for _, bh := range ds.Handles() {
		fullCopy += int64(bh.Length)
	}
	if got := standby.Node.Metrics().SyncChunkBytesPulled; got != fullCopy {
		t.Errorf("first sync pulled %d chunk bytes, want the full copy's %d", got, fullCopy)
	}
}

// TestReplicationSecondRecordPullsOnlyItsDocument: the CAS is shared
// across rooms, so a second record populated from the same seed — the
// same media payloads under a document blob of its own — costs its
// standby one chunk.
func TestReplicationSecondRecordPullsOnlyItsDocument(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	if _, err := workload.Populate(owner.media, "p2", harnessSeed); err != nil {
		t.Fatal(err)
	}
	alice := clusterClient(t, h, "alice")
	// syncRoom joins a room n1 replicates to n3 around doc and returns
	// the standby's counters once they moved past since.
	syncRoom := func(prefix, doc string, since Metrics) Metrics {
		s, _, err := alice.Join(h.roomPlacedOn("n1", "n3", prefix), doc, 0)
		if err != nil {
			t.Fatal(err)
		}
		mustChat(t, s, "hello")
		waitMetric(t, standby, doc+" adoption", func(m Metrics) bool {
			return m.SyncRowsAdopted > since.SyncRowsAdopted && m.SyncChunkBytesPulled > since.SyncChunkBytesPulled
		})
		return standby.Node.Metrics()
	}
	first := syncRoom("board", "p1", Metrics{})
	second := syncRoom("annex", "p2", first)
	if got := second.SyncChunksPulled - first.SyncChunksPulled; got != 1 {
		t.Errorf("second record pulled %d chunks (%d bytes), want 1: only its document blob is new",
			got, second.SyncChunkBytesPulled-first.SyncChunkBytesPulled)
	}
}

// TestReplicationRepeatSyncMovesNoChunks: once the standby converged, a
// forced full re-sync of the unchanged room ships the manifest again
// but adopts no rows and pulls zero chunk bytes.
func TestReplicationRepeatSyncMovesNoChunks(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	roomName := h.roomPlacedOn("n1", "n3", "board")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")
	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0 && m.SyncChunkBytesPulled > 0
	})

	waitMetric(t, owner, "a frame carrying the dataset", func(m Metrics) bool { return m.ManifestSyncs > 0 })
	before := standby.Node.Metrics()
	syncs := owner.Node.Metrics().ManifestSyncs
	// A placement wobble or lost tap marks every room dirty; the next
	// flush then force-resends the manifest even though nothing changed.
	owner.Node.onLoop(owner.Node.markAllDirty)
	waitMetric(t, owner, "manifest re-send", func(m Metrics) bool {
		return m.ManifestSyncs > syncs
	})
	after := standby.Node.Metrics()
	if after.SyncChunkBytesPulled != before.SyncChunkBytesPulled || after.SyncChunksPulled != before.SyncChunksPulled {
		t.Errorf("repeat sync pulled chunks: %+v -> %+v", before, after)
	}
	if after.SyncRowsAdopted != before.SyncRowsAdopted {
		t.Errorf("repeat sync adopted rows: %d -> %d", before.SyncRowsAdopted, after.SyncRowsAdopted)
	}
}

// TestReplicationFailoverServesFromEmptyNode is the headline: a node
// that joined with an empty store becomes the owner of a standby room
// when the seeded owner crashes, and serves it fully — the session
// resumes exactly-once on it, and media fetches served from its CAS
// return the payload bytes it pulled over replication.
func TestReplicationFailoverServesFromEmptyNode(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	roomName := h.roomPlacedOn("n1", "n3", "ward")

	want, err := owner.media.GetImage(h.Record.CTID)
	if err != nil {
		t.Fatal(err)
	}

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
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))
	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0
	})

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

	// The room's standby was the empty node; with the owner dead it must
	// be the sole holder.
	if holder := h.waitSoleHolder(t, roomName); holder != standby.ID {
		t.Errorf("room held by %s, want promoted standby %s", holder, standby.ID)
	}
	// And it serves media end to end, from the CAS it filled over
	// replication: a client pinned to the promoted node fetches the CT
	// image byte-identical to the dead owner's copy.
	pinned, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{standby.Addr}, "carol", fastFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	got, err := pinned.GetImageBytes(h.Record.CTID)
	if err != nil {
		t.Fatalf("GetImageBytes from promoted node: %v", err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Errorf("promoted node served %d bytes differing from the owner's image", len(got))
	}
}

// TestReplicationHandOffCarriesDataset: a reconcile hand-off ships the
// room's dataset with its whole log. The unseeded n3 is partitioned away
// before a room it will own is built on n1; when it heals, n1 hands the
// room off and evicts it, and n3 then serves the room, media included,
// from what the hand-off carried — nothing else replicates the room to it.
func TestReplicationHandOffCarriesDataset(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, heir := h.ByID("n1"), h.ByID("n3")
	full, pair := NewPlacement([]string{"n1", "n2", "n3"}), NewPlacement([]string{"n1", "n2"})
	roomName := ""
	for i := 0; roomName == ""; i++ {
		if name := fmt.Sprintf("handoff-%d", i); full.Owner(name) == heir.ID && pair.Owner(name) == owner.ID {
			roomName = name
		}
	}
	want, err := owner.media.GetImage(h.Record.CTID)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(hn *HarnessNode, user string) *client.Client {
		c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{hn.Addr}, user, fastFailover())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	heir.Partition()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	alice := pinned(owner, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "before the heal")
	alice.Close() // the room stays on n1, empty, until the hand-off

	heir.Heal()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, heir, "dataset adoption from the hand-off", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0 && m.SyncChunkBytesPulled > 0
	})
	bob := pinned(heir, "bob")
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatalf("join on the new owner: %v", err)
	}
	got, err := bob.GetImageBytes(h.Record.CTID)
	if err != nil {
		t.Fatalf("GetImageBytes from the new owner: %v", err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Errorf("new owner served %d bytes differing from the old owner's image", len(got))
	}
}

// TestHandOffSurvivesACutSend: a reconcile hand-off whose first send dies
// on the wire is sent again before the old owner drops the room. n3 is
// partitioned away while a room it will own is built on n1. When it
// heals, the first write on n1's connections of more than a heartbeat's
// bytes resets partway through: the hand-off's frame, whose whole log n3
// must then serve all the same.
func TestHandOffSurvivesACutSend(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	h := startHarness(t, HarnessOptions{Nodes: 3, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
		t.Logf(format, args...)
	}})
	owner, heir := h.ByID("n1"), h.ByID("n3")
	full, pair := NewPlacement([]string{"n1", "n2", "n3"}), NewPlacement([]string{"n1", "n2"})
	roomName := ""
	for i := 0; roomName == ""; i++ {
		if name := fmt.Sprintf("cut-handoff-%d", i); full.Owner(name) == heir.ID && pair.Owner(name) == owner.ID {
			roomName = name
		}
	}
	pinned := func(hn *HarnessNode, user string) *client.Client {
		c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{hn.Addr}, user, fastFailover())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	heir.Partition()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	alice := pinned(owner, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "c0")
	mustChat(t, sa, "c1")
	if err := sa.LeaveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	alice.Close() // the room stays on n1, empty, until the hand-off
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))

	// The first write of more than 512 bytes on any of n1's connections,
	// including those dialed after the heal, is cut. No heartbeat comes
	// near that, and the room's last flush to its standby has landed: the
	// hand-off is n1's only such write.
	_, _, resets := owner.Faults.Stats()
	owner.Faults.CutWriteOver(512)
	heir.Heal()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); fmt.Sprint(h.roomHolders(roomName)) == "[n1]"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("n1 never dropped the room")
		}
	}
	if _, _, r := owner.Faults.Stats(); r == resets {
		t.Fatal("no send of n1's was cut")
	}
	mu.Lock()
	cut := false
	for _, line := range logged {
		cut = cut || strings.Contains(line, fmt.Sprintf("replicating %q to n3 failed", roomName))
	}
	mu.Unlock()
	if !cut {
		t.Fatal("the cut did not fail a hand-off send")
	}

	bob := pinned(heir, "bob")
	_, history, err := bob.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatalf("join on the new owner: %v", err)
	}
	var chats []string
	for _, ev := range history {
		if ev.Kind == room.EvChat {
			chats = append(chats, ev.Text)
		}
	}
	if fmt.Sprint(chats) != "[c0 c1]" {
		t.Errorf("new owner's history holds chats %v, want [c0 c1]", chats)
	}
}

// TestHandOffToAnUnreachableOwnerStillEvicts: a hand-off whose target
// never answers is sent on handOffAttempts passes and then given up, and
// the room is dropped all the same. The passes that try it flush the
// other rooms as well, so another room's standby is current once the
// room is dropped. The hand-off is marked through the loop hook: a
// placement does not keep an unreachable node as a room's owner.
func TestHandOffToAnUnreachableOwnerStillEvicts(t *testing.T) {
	checkSettles(t)
	var mu sync.Mutex
	var logged []string
	h := startHarness(t, HarnessOptions{Nodes: 3, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
		t.Logf(format, args...)
	}})
	owner, target := h.ByID("n1"), h.ByID("n3")
	moving := h.RoomOwnedBy("n1", "moving")
	staying := h.roomPlacedOn("n1", "n2", "staying")
	if _, _, err := clusterClient(t, h, "alice").Join(moving, "p1", 0); err != nil {
		t.Fatal(err)
	}
	s, _, err := clusterClient(t, h, "bob").Join(staying, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, s, "before")

	// n3 black-holes: each attempt waits out the dial's timeout.
	target.Partition()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n := owner.Node
	n.onLoop(func() {
		// Reconcile the live set without n3 first: a later reconcile of
		// it would find the room n1's and unmark it.
		n.reconcile()
		st := n.cursor(moving)
		st.handOff, st.attempts = target.ID, handOffAttempts
	})
	mustChat(t, s, "during-1")
	mustChat(t, s, "during-2")
	for deadline := time.Now().Add(5 * time.Second); fmt.Sprint(h.roomHolders(moving)) == "[n1]"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("n1 never dropped the room it could not hand off")
		}
	}
	// Between passes: the one that dropped the room has finished.
	n.onLoop(func() {})
	mu.Lock()
	gaveUp := false
	for _, line := range logged {
		gaveUp = gaveUp || strings.Contains(line, fmt.Sprintf("giving up handing %q off to n3 after %d attempts", moving, handOffAttempts))
	}
	mu.Unlock()
	if !gaveUp {
		t.Error("the room was dropped without its hand-off attempts running out")
	}
	standby := h.ByID("n2").Node
	standby.replMu.Lock()
	r := standby.replicas[staying]
	var seq uint64
	if r != nil {
		seq = r.log.Seq()
	}
	standby.replMu.Unlock()
	if want := h.ownerSeq(t, staying); seq != want {
		t.Errorf("the other room's standby is at seq %d once the room was dropped, the owner at %d", seq, want)
	}
}
