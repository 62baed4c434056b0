package server

import (
	"context"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/cpnet"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

// testSystem spins up a populated database and a TCP interaction server.
// The session grace is kept short so tests asserting eviction after a
// disconnect (or a push failure) see the detached session expire into
// EvLeave well inside waitEvent's deadline.
func testSystem(t *testing.T) (*Server, string, *workload.PopulatedRecord) {
	t.Helper()
	return testSystemOpts(t, Options{SessionGrace: 75 * time.Millisecond})
}

// testSystemOpts is testSystem with the caller's server options.
func testSystemOpts(t *testing.T, o Options) (*Server, string, *workload.PopulatedRecord) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.Populate(m, "p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String(), rec
}

func dial(t *testing.T, addr, user string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, user)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// overConn builds a client over an established connection, which its
// dialer hands out; the client does not redial.
func overConn(t *testing.T, conn net.Conn, user string) *client.Client {
	t.Helper()
	c, err := client.NewOverDialer(func(context.Context) (net.Conn, error) { return conn, nil }, user, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitEvent pulls events from c until pred matches or the timeout fires.
func waitEvent(t *testing.T, c *client.Client, pred func(room.Event) bool) room.Event {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev := <-c.Events():
			if pred(ev) {
				return ev
			}
		case <-deadline:
			t.Fatal("expected event never arrived")
		}
	}
}

func TestDatabaseMethods(t *testing.T) {
	_, addr, rec := testSystem(t)
	c := dial(t, addr, "alice")
	ids, titles, err := c.ListDocuments()
	if err != nil || len(ids) != 1 || ids[0] != "p1" || titles[0] == "" {
		t.Fatalf("ListDocuments = %v %v %v", ids, titles, err)
	}
	doc, err := c.GetDocument("p1")
	if err != nil {
		t.Fatalf("GetDocument: %v", err)
	}
	if len(doc.Components()) != 7 {
		t.Errorf("components = %d", len(doc.Components()))
	}
	if _, err := c.GetDocument("nosuch"); err == nil {
		t.Error("missing document accepted")
	}
	img, _, err := c.GetImage(rec.CTID)
	if err != nil || img.W != 256 {
		t.Errorf("GetImage: %v %v", img, err)
	}
	if _, _, err := c.GetImage(99999); err == nil {
		t.Error("missing image accepted")
	}
	pcm, sectors, name, err := c.GetAudio(rec.VoiceID)
	if err != nil || len(pcm) == 0 || len(sectors) == 0 || name == "" {
		t.Errorf("GetAudio: %d/%d/%q %v", len(pcm), len(sectors), name, err)
	}
}

func TestMultiResolutionTransfer(t *testing.T) {
	_, addr, rec := testSystem(t)
	c := dial(t, addr, "alice")
	full, fullBytes, err := c.GetCmp(rec.CmpID, 0)
	if err != nil {
		t.Fatalf("GetCmp full: %v", err)
	}
	low, lowBytes, err := c.GetCmp(rec.CmpID, 1)
	if err != nil {
		t.Fatalf("GetCmp low: %v", err)
	}
	if low.W != full.W || low.H != full.H {
		t.Errorf("resolution variants differ in size: %dx%d vs %dx%d", low.W, low.H, full.W, full.H)
	}
	if lowBytes >= fullBytes {
		t.Errorf("1-layer transfer %d not below full %d", lowBytes, fullBytes)
	}
	t.Logf("full=%d bytes, base-layer=%d bytes (%.1fx saving)",
		fullBytes, lowBytes, float64(fullBytes)/float64(lowBytes))

	// The record's stream has four layers (workload.Populate encodes with
	// the default options). Asking for all four, or for more than there
	// are, is asking for the whole stream, as it is to Decode.
	prev := lowBytes
	for k := 2; k <= 6; k++ {
		g, n, err := c.GetCmp(rec.CmpID, k)
		if err != nil {
			t.Fatalf("GetCmp(%d layers): %v", k, err)
		}
		switch {
		case k < 4 && (n <= prev || n >= fullBytes):
			t.Errorf("%d layers = %d bytes, after %d and below the full %d", k, n, prev, fullBytes)
		case k >= 4 && (n != fullBytes || !slices.Equal(g.Pix, full.Pix)):
			t.Errorf("%d layers = %d bytes, want the full stream (%d) and its pixels", k, n, fullBytes)
		}
		prev = n
	}
}

func TestRoomJoinChoicePropagation(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	bob := dial(t, addr, "bob")

	sa, hist, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatalf("alice join: %v", err)
	}
	if len(hist) != 0 {
		t.Errorf("first joiner history = %d", len(hist))
	}
	if sa.View().Outcome["ct"] != "full" {
		t.Errorf("alice initial view: %v", sa.View().Outcome)
	}
	sb, hist2, err := bob.Join("consult", "", 0) // room already bound
	if err != nil {
		t.Fatalf("bob join: %v", err)
	}
	if len(hist2) == 0 {
		t.Error("late joiner got no history")
	}
	// Alice picks the segmented CT; bob receives choice + presentation.
	if err := sa.Choice("ct", "segmented"); err != nil {
		t.Fatalf("choice: %v", err)
	}
	// Past the whole view pushed by bob's own join, to the presentation
	// that reflects alice's choice.
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvPresentation && sb.View().Outcome["ct"] == "segmented"
	})
	if sb.NeedsResync() {
		t.Error("bob's session refused a presentation of the chain")
	}
	if sb.View().Outcome["ct"] != "segmented" || sb.View().Outcome["xray"] != "hidden" {
		t.Errorf("bob view after alice's choice: %v", sb.View().Outcome)
	}
	// Wrong doc binding is rejected.
	carol := dial(t, addr, "carol")
	if _, _, err := carol.Join("consult", "other-doc", 0); err == nil {
		t.Error("mismatched doc binding accepted")
	}
	// Unknown room without doc id is rejected.
	if _, _, err := carol.Join("empty-room", "", 0); err == nil {
		t.Error("join of unbound room accepted")
	}
}

func TestOperationAnnotationFreezeOverWire(t *testing.T) {
	_, addr, rec := testSystem(t)
	alice := dial(t, addr, "alice")
	bob := dial(t, addr, "bob")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := bob.Join("consult", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shared operation.
	derived, err := sa.Operation("ct", "segmentation", "segmented", false)
	if err != nil {
		t.Fatalf("operation: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvOperation && ev.DerivedVar == derived
	})
	// Annotation propagates with payload.
	if _, err := sa.AnnotateText(rec.CTID, 10, 10, "lesion?", 1.0); err != nil {
		t.Fatalf("annotate: %v", err)
	}
	ev := waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvAnnotate })
	if ev.Annotation.Text != "lesion?" || ev.ObjectID != rec.CTID {
		t.Errorf("annotate event: %+v", ev)
	}
	// Freeze blocks bob, release unblocks.
	if err := sa.Freeze(rec.CTID); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvFreeze })
	if _, err := sb.AnnotateLine(rec.CTID, 0, 0, 5, 5, 1); err == nil {
		t.Error("bob annotated a frozen object")
	}
	if err := sb.Release(rec.CTID); err == nil {
		t.Error("bob released alice's freeze")
	}
	if err := sa.Release(rec.CTID); err != nil {
		t.Fatalf("release: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvRelease })
	if _, err := sb.AnnotateLine(rec.CTID, 0, 0, 5, 5, 1); err != nil {
		t.Errorf("bob blocked after release: %v", err)
	}
}

func TestCooperativeSearchOverWire(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	bob := dial(t, addr, "bob")
	sa, _, _ := alice.Join("consult", "p1", 0)
	if _, _, err := bob.Join("consult", "", 0); err != nil {
		t.Fatal(err)
	}
	hits := []voice.Hit{{Word: "dr-baker", Start: 8000, End: 16000, Score: 1.2}}
	if err := sa.ShareSearch(true, "dr-baker", hits); err != nil {
		t.Fatalf("ShareSearch: %v", err)
	}
	ev := waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvSpeakerSearch })
	if len(ev.Hits) != 1 || ev.Hits[0].Word != "dr-baker" {
		t.Errorf("search event: %+v", ev)
	}
	if err := sa.Chat("see segment 2"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == "see segment 2" })
}

func TestDisconnectEvictsFromRoom(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	bob := dial(t, addr, "bob")
	if _, _, err := alice.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Join("consult", "", 0); err != nil {
		t.Fatal(err)
	}
	alice.Close() // abrupt disconnect — no Leave call
	// The session first detaches (resumable), then the short test grace
	// expires it into a real leave that bob observes.
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvLeave && ev.Actor == "alice"
	})
}

func TestLeaveAndMembershipEnforcement(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A second join of the same room on the same connection is rejected.
	if _, _, err := alice.Join("consult", "p1", 0); err == nil {
		t.Error("double join on one connection accepted")
	}
	// Choices from a connection that is not the claimed member fail.
	mallory := dial(t, addr, "mallory")
	sm, _, err := mallory.Join("consult", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = sm
	// mallory cannot impersonate alice: the proto carries the user, but
	// the server checks the connection's own membership record.
	if err := sa.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := sa.Choice("ct", "hidden"); err == nil {
		t.Error("choice after leave accepted")
	}
	if err := sa.Leave(); err == nil {
		t.Error("double leave accepted")
	}
}

func TestHistoryRPC(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	sa.Chat("one")
	sa.Chat("two")
	evs, err := sa.History(0)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	chats := 0
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Kind == room.EvChat {
			chats++
		}
		lastSeq = ev.Seq
	}
	if chats != 2 {
		t.Errorf("chats in history = %d", chats)
	}
	tail, err := sa.History(lastSeq)
	if err != nil || len(tail) != 0 {
		t.Errorf("History(last) = %v, %v", tail, err)
	}
}

func TestSessionBufferWarm(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sa.WarmBuffer(cpnet.Outcome{}, 1<<22)
	if err != nil {
		t.Fatalf("WarmBuffer: %v", err)
	}
	if n == 0 {
		t.Error("nothing prefetched")
	}
	// The warmed CT image is now a fetch the buffer answers.
	ct, _ := sa.Doc.Component("ct")
	full, _ := ct.Presentation("full")
	if _, _, err := alice.GetImage(full.ObjectID); err != nil {
		t.Fatal(err)
	}
	if alice.BufferStats().Hits == 0 {
		t.Error("warmed payload missed")
	}
	// A client without a buffer refuses warming.
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.WarmBuffer(nil, 1); err == nil {
		t.Error("bufferless warm accepted")
	}
}

func TestBroadcastOverWire(t *testing.T) {
	_, addr, _ := testSystem(t)
	alice := dial(t, addr, "alice")
	bob := dial(t, addr, "bob")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := bob.Join("consult", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.StartBroadcast(); err != nil {
		t.Fatalf("StartBroadcast: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvBroadcastStart })
	// Bob loses the floor.
	if err := sb.Choice("ct", "hidden"); err == nil {
		t.Error("non-presenter choice accepted during broadcast")
	}
	// Alice's choice mirrors to bob.
	if err := sa.Choice("ct", "lowres"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, func(ev room.Event) bool {
		return ev.Kind == room.EvPresentation && sb.View().Outcome["ct"] == "lowres"
	})
	if sb.View().Outcome["ct"] != "lowres" || sb.NeedsResync() {
		t.Errorf("bob not mirroring presenter: %v", sb.View().Outcome)
	}
	if err := sb.StopBroadcast(); err == nil {
		t.Error("non-presenter stop accepted")
	}
	if err := sa.StopBroadcast(); err != nil {
		t.Fatalf("StopBroadcast: %v", err)
	}
	waitEvent(t, bob, func(ev room.Event) bool { return ev.Kind == room.EvBroadcastStop })
	if err := sb.Choice("ct", "full"); err != nil {
		t.Errorf("floor not returned: %v", err)
	}
}

func TestSaveMinutesPersists(t *testing.T) {
	srv, addr, rec := testSystem(t)
	_ = srv
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Chat("plan: biopsy tomorrow"); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.AnnotateText(rec.CTID, 12, 12, "lesion 8mm", 1); err != nil {
		t.Fatal(err)
	}
	comp, err := sa.SaveMinutes()
	if err != nil {
		t.Fatalf("SaveMinutes: %v", err)
	}
	if comp == "" {
		t.Fatal("empty component name")
	}
	// A fresh fetch of the document carries the minutes for future
	// reference — the paper's intro scenario.
	doc, err := alice.GetDocument("p1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := doc.Component(comp)
	if err != nil {
		t.Fatalf("minutes component not persisted: %v", err)
	}
	text := string(c.Presentations[0].Inline)
	if !contains(text, "biopsy tomorrow") || !contains(text, "lesion 8mm") {
		t.Errorf("transcript content:\n%s", text)
	}
	// The image object's FLD_TEXTS now holds the overlay.
	_, texts, err := alice.GetImage(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	var anns []image.Annotation
	if err := json.Unmarshal([]byte(texts), &anns); err != nil || len(anns) != 1 || anns[0].Text != "lesion 8mm" {
		t.Errorf("persisted annotations: %v, %v", anns, err)
	}
}

// TestSaveMinutesAnnotationErrors covers the two ways persisting an
// annotation overlay can fail: marks on an object with no image row
// are skipped and the save succeeds; any other failure (here the image
// table itself is gone, while the document write still works) fails
// the save instead of reading as one.
func TestSaveMinutesAnnotationErrors(t *testing.T) {
	t.Run("no-image-row", func(t *testing.T) {
		_, addr, rec := testSystem(t)
		sa, _, err := dial(t, addr, "alice").Join("consult", "p1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sa.AnnotateText(rec.CTID+1000, 1, 1, "on nothing", 1); err != nil {
			t.Fatal(err)
		}
		if comp, err := sa.SaveMinutes(); err != nil || comp == "" {
			t.Fatalf("SaveMinutes = %q, %v; want marks on a non-image object skipped", comp, err)
		}
	})
	t.Run("store-failure", func(t *testing.T) {
		srv, addr, rec := testSystem(t)
		sa, _, err := dial(t, addr, "alice").Join("consult", "p1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sa.AnnotateText(rec.CTID, 12, 12, "lesion 8mm", 1); err != nil {
			t.Fatal(err)
		}
		if err := srv.db.DB().DropTable(mediadb.ImageTable); err != nil {
			t.Fatal(err)
		}
		if comp, err := sa.SaveMinutes(); err == nil {
			t.Fatalf("SaveMinutes = %q, nil although the annotations could not be written", comp)
		}
	})
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
