package client

import (
	"context"
	"net"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// pipeSystem boots a server over net.Pipe and returns a connected client
// — no TCP, so these tests isolate the client-library logic.
func pipeSystem(t *testing.T) (*Client, *workload.PopulatedRecord) {
	t.Helper()
	srv, _, recs := testServer(t, "p1")
	return pipeClient(t, srv, "alice"), recs[0]
}

// pipeClient is a client of srv over net.Pipe, closed with the test.
func pipeClient(t *testing.T, srv interface{ ServeConn(net.Conn) }, user string) *Client {
	t.Helper()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c, err := overConn(cc, user)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testServer is a server over a store holding one populated record per
// name in docs, closed with the test.
func testServer(t *testing.T, docs ...string) (*server.Server, *mediadb.MediaDB, []*workload.PopulatedRecord) {
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
	var recs []*workload.PopulatedRecord
	for i, id := range docs {
		rec, err := workload.Populate(m, id, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	srv := server.New(m)
	t.Cleanup(func() { srv.Close() })
	return srv, m, recs
}

// overConn builds a client over an established connection, which its
// dialer hands out; the client does not redial.
func overConn(conn net.Conn, user string) (*Client, error) {
	return NewOverDialer(func(context.Context) (net.Conn, error) { return conn, nil }, user, Options{})
}

func TestConstructorValidation(t *testing.T) {
	_, cc := net.Pipe()
	defer cc.Close()
	if _, err := overConn(cc, ""); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := NewOverDialer(nil, "u", Options{}); err == nil {
		t.Error("nil dial function accepted")
	}
	if _, err := NewOverResolver(nil, nil, "u", Options{}); err == nil {
		t.Error("empty endpoint set accepted")
	}
	if _, err := Dial("127.0.0.1:1", ""); err == nil {
		t.Error("empty user accepted by Dial")
	}
	if _, err := Dial("256.0.0.1:x", "u"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestClientAccessors(t *testing.T) {
	c, _ := pipeSystem(t)
	if c.user != "alice" {
		t.Errorf("User = %s", c.user)
	}
	ids, titles, err := c.ListDocuments()
	if err != nil || len(ids) != 1 || len(titles) != 1 {
		t.Fatalf("ListDocuments: %v %v %v", ids, titles, err)
	}
}

func TestGetters(t *testing.T) {
	c, rec := pipeSystem(t)
	doc, err := c.GetDocument("p1")
	if err != nil || doc.ID != "p1" {
		t.Fatalf("GetDocument: %v %v", doc, err)
	}
	img, texts, err := c.GetImage(rec.CTID)
	if err != nil || img.W != 256 {
		t.Fatalf("GetImage: %v %q %v", img, texts, err)
	}
	raw, err := c.GetImageBytes(rec.CTID)
	if err != nil || len(raw) == 0 {
		t.Fatalf("GetImageBytes: %d %v", len(raw), err)
	}
	pcm, sectors, name, err := c.GetAudio(rec.VoiceID)
	if err != nil || len(pcm) == 0 || len(sectors) == 0 || name == "" {
		t.Fatalf("GetAudio: %v", err)
	}
	full, fullN, err := c.GetCmp(rec.CmpID, 0)
	if err != nil || full.W != 256 {
		t.Fatalf("GetCmp: %v %v", full, err)
	}
	low, lowN, err := c.GetCmp(rec.CmpID, 1)
	if err != nil || low.W != 256 || lowN >= fullN {
		t.Fatalf("GetCmp(1): %v bytes=%d/%d %v", low, lowN, fullN, err)
	}
}

// The stream GetCmp decodes is made of slices of the payload it fetched,
// and with a media buffer that payload is the buffer's entry: a decode
// that wrote to its input would corrupt every later NotModified answer.
func TestGetCmpLeavesCachedStreamIntact(t *testing.T) {
	c, rec := pipeSystem(t)
	c.buffer.Store(newMediaBuffer(8 << 20))
	intact := func(when string) {
		t.Helper()
		digest, cached := c.buffer.Load().lookup(objectKey{mediadb.CmpTable, rec.CmpID})
		if cached == nil || blob.Sum(cached) != blob.Digest(digest) {
			t.Fatalf("%s: cached stream present=%v no longer matches its digest", when, cached != nil)
		}
	}
	first, _, err := c.GetCmp(rec.CmpID, 0) // a miss: decodes the bytes it has just cached
	if err != nil {
		t.Fatal(err)
	}
	intact("after the miss")
	second, _, err := c.GetCmp(rec.CmpID, 0) // a hit: decodes the cache entry itself
	if err != nil {
		t.Fatal(err)
	}
	intact("after the hit")
	if st := c.BufferStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
	if !slices.Equal(first.Pix, second.Pix) {
		t.Error("the cached stream decodes differently")
	}
}

func TestSessionViewAndApplyEvent(t *testing.T) {
	c, _ := pipeSystem(t)
	s, _, err := c.Join("r", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	v := s.View()
	if v.Outcome["ct"] != "full" {
		t.Errorf("initial view: %v", v.Outcome)
	}
	// A presentation event for this room updates the view.
	s.ApplyEvent(room.Event{
		Kind: room.EvPresentation, Room: "r",
		Outcome: cpnet.Outcome{"ct": "hidden"},
		Visible: map[string]bool{"ct": false},
	})
	if s.View().Outcome["ct"] != "hidden" {
		t.Error("presentation event not applied")
	}
	// Events for other rooms or other kinds are ignored.
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "other",
		Outcome: cpnet.Outcome{"ct": "full"}})
	if s.View().Outcome["ct"] != "hidden" {
		t.Error("foreign room event applied")
	}
	s.ApplyEvent(room.Event{Kind: room.EvChat, Room: "r", Text: "x"})
	if s.View().Outcome["ct"] != "hidden" {
		t.Error("chat event mutated the view")
	}
}

// TestApplyPresentationChange: a pushed presentation is a change against
// the view the session holds. The session applies it to its own maps,
// follows the chain of view ids, takes a change made against the empty
// view as the whole view, and refuses — flagging NeedsResync — one made
// against a view it does not hold. View hands out copies, and maps that
// came in an event made in-process are copied, never adopted.
func TestApplyPresentationChange(t *testing.T) {
	s := &Session{Room: "r"}
	sent := cpnet.Outcome{"ct": "full", "xray": "icon"}
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", View: 4,
		Outcome: sent, Visible: map[string]bool{"ct": true, "xray": true}})
	sent["ct"] = "mutated by the sender"
	got := s.View()
	if got.Outcome["ct"] != "full" {
		t.Errorf("the session adopted the sender's map: %v", got.Outcome)
	}
	got.Outcome["ct"] = "mutated by the reader"
	if s.View().Outcome["ct"] != "full" {
		t.Error("View handed out the session's own map")
	}

	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 4, View: 5, Changes: []room.ViewChange{
		{Tag: room.ChangeSet, Name: "ct", Value: "segmented"},
		{Tag: room.ChangeHide, Name: "xray"},
		{Tag: room.ChangeSet, Name: "ct.zoom", Value: "applied"},
		{Tag: room.ChangeShow, Name: "minutes-1"},
	}})
	want := document.View{
		Outcome: cpnet.Outcome{"ct": "segmented", "xray": "icon", "ct.zoom": "applied"},
		Visible: map[string]bool{"ct": true, "xray": false, "minutes-1": true},
	}
	if got := s.View(); !reflect.DeepEqual(got, want) {
		t.Errorf("after the change: %v, want %v", got, want)
	}
	// An empty change still moves the id the next one is checked against.
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 5, View: 6})
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 6, View: 7, Changes: []room.ViewChange{
		{Tag: room.ChangeDropVariable, Name: "ct.zoom"},
		{Tag: room.ChangeDropComponent, Name: "minutes-1"},
	}})
	delete(want.Outcome, "ct.zoom")
	delete(want.Visible, "minutes-1")
	if got := s.View(); !reflect.DeepEqual(got, want) || s.NeedsResync() {
		t.Errorf("after the removals: %v (resync %v), want %v", got, s.NeedsResync(), want)
	}

	// Made against a view this session never held: refused and flagged.
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 5, View: 9, Changes: []room.ViewChange{
		{Tag: room.ChangeSet, Name: "ct", Value: "hidden"},
	}})
	if got := s.View(); !reflect.DeepEqual(got, want) {
		t.Errorf("a change against another view was applied: %v", got)
	}
	if !s.NeedsResync() {
		t.Error("a refused change did not flag the session")
	}
	// The whole view (base 0) is accepted whatever the session holds, and
	// what follows it chains from its id.
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 0, View: 10, Changes: []room.ViewChange{
		{Tag: room.ChangeSet, Name: "ct", Value: "lowres"},
		{Tag: room.ChangeShow, Name: "ct"},
	}})
	s.ApplyEvent(room.Event{Kind: room.EvPresentation, Room: "r", Base: 10, View: 11, Changes: []room.ViewChange{
		{Tag: room.ChangeHide, Name: "ct"},
	}})
	want = document.View{Outcome: cpnet.Outcome{"ct": "lowres"}, Visible: map[string]bool{"ct": false}}
	if got := s.View(); !reflect.DeepEqual(got, want) {
		t.Errorf("after a whole view and a change: %v, want %v", got, want)
	}
}

// TestViewSurvivesLocalShedding: the client sheds too — the local stream
// drops its oldest event once eventQueueSize are held — and a presentation
// is a change against the one before it. A consumer that reads nothing
// while its own choices push well past the bound loses presentations off
// the stream; when the room goes quiet the session's view is the engine's
// all the same, because every push was folded before it was queued.
func TestViewSurvivesLocalShedding(t *testing.T) {
	c, _ := pipeSystem(t)
	s, _, err := c.Join("r", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.GetDocument("p1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Join("alice"); err != nil {
		t.Fatal(err)
	}
	// Each choice pushes two events. The last is one the cycle before it
	// never makes, so the view it leads to is not reached earlier.
	script := [][2]string{{"ct", "segmented"}, {"xray", "full"}, {"ct", "full"}, {"xray", ""}, {"ct", "lowres"}}
	const choices = eventQueueSize * 3 / 4
	for i := 0; i < choices; i++ {
		ch := script[i%len(script)]
		if i == choices-1 {
			ch = [2]string{"ct", "hidden"}
		}
		if err := s.Choice(ch[0], ch[1]); err != nil {
			t.Fatalf("choice %d: %v", i, err)
		}
		if _, err := eng.Choice("alice", ch[0], ch[1]); err != nil {
			t.Fatalf("local choice %d: %v", i, err)
		}
	}
	want, err := eng.ViewFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	var got document.View
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got = s.View()
		delete(got.Outcome, core.BandwidthVariable) // the server's measurement, not the script's
		if reflect.DeepEqual(got.Outcome, want.Outcome) && reflect.DeepEqual(got.Visible, want.Visible) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quiet room, and the session shows\n%v %v\nwhere the engine solves\n%v %v", got.Outcome, got.Visible, want.Outcome, want.Visible)
		}
	}
	// The stream did shed, presentations among the rest.
	held, presentations := 0, 0
	for drained := false; !drained; {
		select {
		case ev := <-c.Events():
			held++
			if ev.Kind == room.EvPresentation {
				presentations++
			}
			s.ApplyEvent(ev) // what a consumer does with each; all folded already
		case <-time.After(50 * time.Millisecond):
			drained = true
		}
	}
	if held > eventQueueSize || presentations >= choices {
		t.Fatalf("the stream held %d events, %d of them presentations, after %d choices: nothing was shed", held, presentations, choices)
	}
	if got := s.View(); !reflect.DeepEqual(got.Visible, want.Visible) {
		t.Errorf("applying the stream's events again moved the view to %v", got.Visible)
	}
}

// TestParkedPresentationsAreFolded: the pushes parked while a join or
// resume is in flight are changes against the view its response carries,
// so they fold after it, in order — every presentation among them, even
// past the park's bound. A straggler from the member this connection was
// before is older than the response's view and is passed over without a
// flag; a change against a view the session never held flags it.
func TestParkedPresentationsAreFolded(t *testing.T) {
	opts := Options{}
	opts.normalize()
	c := newClient("alice", nil, opts)
	s := &Session{client: c, Room: "r"}
	c.sessions["r"] = s
	push := func(ev room.Event) {
		ev.Room, ev.Kind = "r", room.EvPresentation
		if s.admit(ev) {
			c.emit(ev)
		}
	}
	set := func(v string) []room.ViewChange {
		return []room.ViewChange{{Tag: room.ChangeSet, Name: "ct", Value: v}}
	}
	wholeView := func(seq, id uint64, v string) room.Event {
		return room.Event{Seq: seq, Room: "r", Kind: room.EvPresentation, View: id,
			Changes: append(set(v), room.ViewChange{Tag: room.ChangeShow, Name: "ct"})}
	}

	// answer is a server that pushes while the request is out, then
	// answers with the view.
	answer := func(view room.Event, pushes func()) func(context.Context, string, wire.BodyEncoder, any) error {
		return func(_ context.Context, _ string, _ wire.BodyEncoder, resp any) error {
			pushes()
			*resp.(*proto.JoinRoomResp) = proto.JoinRoomResp{Resumed: true, Complete: true, View: view}
			return nil
		}
	}

	// The response's view is Seq 10, id 100; what parks behind it chains
	// from there.
	const parked = eventQueueSize + 50
	err := s.resume(context.Background(), answer(wholeView(10, 100, "the response's"), func() {
		for i := uint64(1); i <= parked; i++ {
			push(room.Event{Seq: 10 + i, Base: 99 + i, View: 100 + i, Changes: set(strconv.FormatUint(i, 10))})
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := document.View{Outcome: cpnet.Outcome{"ct": strconv.Itoa(parked)}, Visible: map[string]bool{"ct": true}}
	if got := s.View(); !reflect.DeepEqual(got, want) || s.NeedsResync() {
		t.Fatalf("after a resume that parked %d presentations: %v (resync %v), want %v", parked, got, s.NeedsResync(), want)
	}
	if s.LastSeq() != 10+parked {
		t.Errorf("the stream's gate stands at %d, want %d", s.LastSeq(), 10+parked)
	}
	push(room.Event{Seq: 11 + parked, Base: 100 + parked, View: 101 + parked, Changes: set("next")})
	if got := s.View(); got.Outcome["ct"] != "next" || s.NeedsResync() {
		t.Fatalf("the change after the resume: %v (resync %v)", got, s.NeedsResync())
	}

	// A quiet resume: the new member's view is stamped after anything the
	// old one was sent, so a late push from the old one is passed over.
	if err := s.resume(context.Background(), answer(wholeView(20+parked, 500, "resumed"), func() {})); err != nil {
		t.Fatal(err)
	}
	push(room.Event{Seq: 12 + parked, Base: 101 + parked, View: 102 + parked, Changes: set("a straggler's")})
	if got := s.View(); got.Outcome["ct"] != "resumed" || s.NeedsResync() {
		t.Fatalf("a quiet resume and a straggler: %v (resync %v)", got, s.NeedsResync())
	}
	push(room.Event{Seq: 21 + parked, Base: 500, View: 501, Changes: []room.ViewChange{{Tag: room.ChangeHide, Name: "ct"}}})
	want = document.View{Outcome: cpnet.Outcome{"ct": "resumed"}, Visible: map[string]bool{"ct": false}}
	if got := s.View(); !reflect.DeepEqual(got, want) || s.NeedsResync() {
		t.Fatalf("the new member's first change: %v (resync %v), want %v", got, s.NeedsResync(), want)
	}
	push(room.Event{Seq: 22 + parked, Base: 999, View: 1000, Changes: set("from nowhere")})
	if got := s.View(); !reflect.DeepEqual(got, want) || !s.NeedsResync() {
		t.Fatalf("a change against a view never held: %v (resync %v)", got, s.NeedsResync())
	}
}

func TestSessionRoundTripOverPipe(t *testing.T) {
	c, rec := pipeSystem(t)
	s, _, err := c.Join("r", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Choice("ct", "segmented"); err != nil {
		t.Fatalf("Choice: %v", err)
	}
	// Our own presentation push arrives too.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev := <-c.Events():
			// The push carries what changed; the session holds the view.
			s.ApplyEvent(ev)
			if ev.Kind == room.EvPresentation && s.View().Outcome["ct"] == "segmented" {
				goto updated
			}
		case <-deadline:
			t.Fatal("presentation push never arrived")
		}
	}
updated:
	if s.View().Outcome["xray"] != "hidden" {
		t.Errorf("view after choice: %v", s.View().Outcome)
	}
	// Operation + annotation + history over the pipe.
	derived, err := s.OperationCtx(context.Background(), "ct", "zoom", "segmented", false)
	if err != nil || derived == "" {
		t.Fatalf("Operation: %q %v", derived, err)
	}
	annID, err := s.AnnotateText(rec.CTID, 4, 4, "note", 1)
	if err != nil {
		t.Fatalf("AnnotateText: %v", err)
	}
	if _, err := s.AnnotateLine(rec.CTID, 0, 0, 9, 9, 1); err != nil {
		t.Fatalf("AnnotateLine: %v", err)
	}
	if err := s.DeleteAnnotation(rec.CTID, annID); err != nil {
		t.Fatalf("DeleteAnnotation: %v", err)
	}
	if err := s.Freeze(rec.CTID); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if err := s.Release(rec.CTID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.ShareSearch(false, "urgent", nil); err != nil {
		t.Fatalf("ShareSearch: %v", err)
	}
	if err := s.Chat("hello"); err != nil {
		t.Fatalf("Chat: %v", err)
	}
	evs, err := s.HistoryCtx(context.Background(), 0)
	if err != nil || len(evs) == 0 {
		t.Fatalf("History: %d %v", len(evs), err)
	}
	if err := s.LeaveCtx(context.Background()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
}

// The first Join with a size gives the client its buffer; a fetched
// object is then a fetch the buffer answers.
func TestSessionBuffer(t *testing.T) {
	c, rec := pipeSystem(t)
	if _, _, err := c.Join("r", "p1", 1<<22); err != nil {
		t.Fatal(err)
	}
	b := c.buffer.Load()
	if b == nil {
		t.Fatal("buffer not created")
	}
	if _, _, err := c.GetImage(rec.CTID); err != nil {
		t.Fatal(err)
	}
	fetched := c.BufferStats()
	if fetched.Misses != 1 || fetched.Bytes == 0 {
		t.Fatalf("first fetch: %+v, want one miss and the image held", fetched)
	}
	if _, _, err := c.GetImage(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if st := c.BufferStats(); st.Hits != fetched.Hits+1 || st.Misses != fetched.Misses {
		t.Errorf("fetch of a held image: %+v after %+v, want one more hit", st, fetched)
	}
	// A later Join shares the buffer, whatever size it names.
	if _, _, err := c.Join("r2", "p1", 1<<10); err != nil {
		t.Fatal(err)
	}
	if c.buffer.Load() != b {
		t.Error("a second Join replaced the client's buffer")
	}
}

// One buffer serves every goroutine of the client: fetches of the three
// kinds running at once each get the object's own bytes.
func TestBufferSharedByConcurrentFetches(t *testing.T) {
	c, rec := pipeSystem(t)
	if _, _, err := c.Join("r", "p1", 1<<22); err != nil {
		t.Fatal(err)
	}
	ct, err := c.GetImageBytes(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	pcm, _, _, err := c.GetAudio(rec.VoiceID)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				if got, err := c.GetImageBytes(rec.CTID); err != nil || !slices.Equal(got, ct) {
					t.Errorf("image: %d bytes, %v", len(got), err)
				}
				if got, _, _, err := c.GetAudio(rec.VoiceID); err != nil || !slices.Equal(got, pcm) {
					t.Errorf("audio: %d bytes, %v", len(got), err)
				}
				if _, _, err := c.GetCmp(rec.CmpID, 0); err != nil {
					t.Errorf("stream: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.BufferStats(); st.Hits < 4*5*2 {
		t.Errorf("stats %+v: the held image and audio were transferred again", st)
	}
}

// waitFor polls cond until it holds or the test has waited too long.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

func TestEventOverflowShedsOldest(t *testing.T) {
	_, cc := net.Pipe()
	defer cc.Close()
	c, err := overConn(cc, "u")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Nobody reads Events(): the channel fills, the backlog takes the
	// rest, and past the bound each emit sheds the oldest event held.
	const extra = 10
	for i := 1; i <= eventQueueSize+extra; i++ {
		c.emit(room.Event{Seq: uint64(i), Kind: room.EvChat})
		if i == eventChanSize+1 {
			// The first spilled event starts the drain goroutine; let it
			// take that event in hand, so the count of events kept is exact however
			// the two goroutines are scheduled.
			waitFor(t, func() bool {
				c.evMu.Lock()
				defer c.evMu.Unlock()
				return c.draining && len(c.backlog) == 0
			})
		}
	}
	// What is left comes out in order, gap-free after the shed prefix,
	// and is exactly the bound.
	for want := uint64(extra + 1); want <= eventQueueSize+extra; want++ {
		select {
		case ev := <-c.Events():
			if ev.Seq != want {
				t.Fatalf("got event %d, want %d (the oldest %d shed, the rest in order)", ev.Seq, want, extra)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream dried up before event %d", want)
		}
	}
	// Drained: the backlog and its goroutine are gone, and the next event
	// takes the direct path again.
	waitFor(t, func() bool {
		c.evMu.Lock()
		defer c.evMu.Unlock()
		return !c.draining && c.backlog == nil
	})
	select {
	case ev := <-c.Events():
		t.Fatalf("event %d beyond the bound", ev.Seq)
	default:
	}
	c.emit(room.Event{Seq: 5000})
	if len(c.events) != 1 {
		t.Error("emit on an idle stream did not go straight to the channel")
	}
}

// Emits from several goroutines against a slow consumer and a Close in
// the middle: the stream stays ordered per emitter and nothing blocks.
func TestEventBacklogConcurrentEmitAndClose(t *testing.T) {
	_, cc := net.Pipe()
	defer cc.Close()
	c, err := overConn(cc, "u")
	if err != nil {
		t.Fatal(err)
	}
	const emitters, each = 4, 600
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				c.emit(room.Event{Actor: string(rune('a' + e)), Seq: uint64(i)})
			}
		}(e)
	}
	last := map[string]uint64{}
	for n := 0; n < 500; n++ {
		ev := <-c.Events()
		if ev.Seq <= last[ev.Actor] {
			t.Fatalf("emitter %s: event %d after %d", ev.Actor, ev.Seq, last[ev.Actor])
		}
		last[ev.Actor] = ev.Seq
	}
	c.Close()
	wg.Wait()
	waitFor(t, func() bool {
		c.evMu.Lock()
		defer c.evMu.Unlock()
		return !c.draining
	})
}
