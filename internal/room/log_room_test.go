package room

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mmconf/internal/media/voice"
)

// broadcastLog is the plain-slice reference a room's log is held against
// as the room itself fills it: every broadcast event ever, of which the
// last logSize count as buffered.
type broadcastLog struct{ all []Event }

func (l *broadcastLog) kept() []Event {
	if cut := len(l.all) - logSize; cut > 0 {
		return l.all[cut:]
	}
	return l.all
}

func (l *broadcastLog) trimmed() uint64 {
	if cut := len(l.all) - logSize; cut > 0 {
		return l.all[cut-1].Seq
	}
	return 0
}

func (l *broadcastLog) since(seq uint64) []Event {
	var out []Event
	for _, ev := range l.kept() {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

func (l *broadcastLog) ofKind(kinds ...EventKind) []Event {
	var out []Event
	for _, ev := range l.kept() {
		for _, k := range kinds {
			if ev.Kind == k {
				out = append(out, ev)
			}
		}
	}
	return out
}

// take moves what the member was sent into the log, as the room buffered
// it: broadcast events only, without the delivery-side marks.
func (l *broadcastLog) take(t *testing.T, m *Member) {
	t.Helper()
	for {
		select {
		case ev := <-m.Events():
			if ev.Resync {
				t.Fatalf("the observer's queue overflowed at event %d: the reference has a gap", ev.Seq)
			}
			if ev.Kind == EvPresentation {
				continue
			}
			ev.shared = nil
			l.all = append(l.all, ev)
		default:
			return
		}
	}
}

// compare holds every read of the room's log against the reference.
func (l *broadcastLog) compare(t *testing.T, r *Room, at string) {
	t.Helper()
	kept := l.kept()
	if got := r.Gauges().BufferedEvents; got != len(kept) {
		t.Fatalf("%s: %d events buffered, want %d", at, got, len(kept))
	}
	if got := r.Trimmed(); got != l.trimmed() {
		t.Fatalf("%s: trimmed %d, want %d", at, got, l.trimmed())
	}
	marks := []uint64{0, l.trimmed(), r.Seq(), r.Seq() + 5}
	if n := len(kept); n > 0 {
		marks = append(marks, kept[0].Seq-1, kept[0].Seq, kept[n/3].Seq, kept[n-1].Seq-1, kept[n-1].Seq)
	}
	for _, since := range marks {
		if got, want := r.History(since), l.since(since); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: History(%d) returns %d events from %s, want %d from %s",
				at, since, len(got), firstSeq(got), len(want), firstSeq(want))
		}
	}
	m := r.Minutes()
	if want := l.ofKind(EvChat); !reflect.DeepEqual(m.Chat, want) {
		t.Fatalf("%s: minutes hold %d chats from %s, want %d from %s", at, len(m.Chat), firstSeq(m.Chat), len(want), firstSeq(want))
	}
	if want := l.ofKind(EvWordSearch, EvSpeakerSearch); !reflect.DeepEqual(m.Searches, want) {
		t.Fatalf("%s: minutes hold %d searches, want %d", at, len(m.Searches), len(want))
	}
}

// TestChangeBufferRingAgainstSlice drives a room through more than two
// full turns of its log's ring with its own operations — chats, shared
// searches, choices — and holds History, Minutes, Trimmed, the gauge, a
// late Join's history and Resume's replay against a plain slice at every
// stage: before the ring fills, at the edge, one past it, mid-turn and
// after each wrap. A log merged from what the room broadcast then seeds
// a fresh room, which carries on from it.
func TestChangeBufferRingAgainstSlice(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	watcher, _, _, err := r.Join(ctx, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	var log broadcastLog
	act := func(i int) {
		t.Helper()
		var err error
		switch i % 5 {
		case 0:
			err = r.ShareSearch("watcher", EvWordSearch, fmt.Sprint("kw", i), []voice.Hit{{Word: "w", Start: i, End: i + 1}})
		case 1:
			err = r.Choice(ctx, "watcher", "ct", []string{"segmented", "full"}[i/5%2])
		default:
			err = r.Chat("watcher", fmt.Sprint("line ", i))
		}
		if err != nil {
			t.Fatal(err)
		}
		log.take(t, watcher)
	}
	// A late joiner's history and a resumed session's replay, both of
	// which add events of their own (join, leave) to the stream.
	guests := func(at string) {
		t.Helper()
		guest, hist, _, err := r.Join(ctx, "guest")
		if err != nil {
			t.Fatal(err)
		}
		if want := log.kept(); !reflect.DeepEqual(hist, want) && !(len(hist) == 0 && len(want) == 0) {
			t.Fatalf("%s: a late joiner is handed %d events from %s, want %d from %s",
				at, len(hist), firstSeq(hist), len(want), firstSeq(want))
		}
		log.take(t, watcher)
		seen := r.Seq()
		r.Detach(guest)
		for i := 0; i < 7; i++ {
			act(2) // chats the guest misses
		}
		for _, since := range []uint64{seen, log.trimmed(), 0, r.Seq()} {
			guest, missed, _, complete, err := r.Resume(ctx, "guest", since)
			if err != nil {
				t.Fatal(err)
			}
			if want := log.since(since); !reflect.DeepEqual(missed, want) {
				t.Fatalf("%s: Resume(%d) replays %d events from %s, want %d from %s",
					at, since, len(missed), firstSeq(missed), len(want), firstSeq(want))
			}
			if want := since >= log.trimmed() && since <= r.Seq(); complete != want {
				t.Fatalf("%s: Resume(%d) complete = %v with trimmed %d and seq %d", at, since, complete, log.trimmed(), r.Seq())
			}
			r.Detach(guest)
		}
		if err := r.Leave("guest"); err != nil {
			t.Fatal(err)
		}
		log.take(t, watcher)
	}

	// Every read is compared at each step around the edges — the ring
	// about to fill, full, one past, and the same at the second turn —
	// and every 97th step between; the guests come by six times.
	var array *Event
	visits := []int{10, logSize - 20, logSize + 1, logSize + 500, 2 * logSize, 2*logSize + 137}
	for i := 0; len(log.all) < 2*logSize+200; i++ {
		act(i)
		n := len(log.all)
		at := fmt.Sprintf("after %d events", n)
		if edge := n % logSize; edge <= 8 || edge >= logSize-8 || i%97 == 0 {
			log.compare(t, r, at)
		}
		if len(visits) > 0 && n >= visits[0] {
			visits = visits[1:]
			guests(at)
			log.compare(t, r, at+" and the guests")
		}
		if r.log.n == logSize {
			// A full ring stays in the array it filled.
			if array == nil {
				array = &r.log.events[0]
			}
			if &r.log.events[0] != array || len(r.log.events) != logSize {
				t.Fatalf("%s: the full ring moved or grew (%d slots)", at, len(r.log.events))
			}
		}
	}
	if len(visits) != 0 {
		t.Fatalf("the walk ended with %d guest visits to go", len(visits))
	}
	if log.trimmed() < logSize {
		t.Fatalf("the walk trimmed only to %d: not two turns", log.trimmed())
	}

	// A standby that merged every event broadcast, more than the ring
	// holds, keeps the tail and says what it dropped; a room restored
	// from it carries on from there.
	var merged Log
	if err := merged.Merge(log.all, r.Seq(), 0); err != nil {
		t.Fatal(err)
	}
	restored := newRoom(t)
	if err := restored.Restore(merged); err != nil {
		t.Fatal(err)
	}
	if restored.Seq() != r.Seq() {
		t.Fatalf("restored seq %d, want %d", restored.Seq(), r.Seq())
	}
	watcher2, hist, _, err := restored.Join(ctx, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hist, log.kept()) {
		t.Fatalf("restored room hands a joiner %d events from %s, want %d from %s",
			len(hist), firstSeq(hist), len(log.kept()), firstSeq(log.kept()))
	}
	log.take(t, watcher2)
	log.compare(t, restored, "restored")
	for i := 0; i < 300; i++ {
		if err := restored.Chat("watcher", "after the handover"); err != nil {
			t.Fatal(err)
		}
		log.take(t, watcher2)
	}
	log.compare(t, restored, "restored and 300 on")

	// A short log restores whole, into a ring that then fills and turns.
	log = broadcastLog{all: append([]Event(nil), log.kept()[:40]...)}
	var short Log
	if err := short.Merge(log.all, log.all[39].Seq+3, log.all[0].Seq-1); err != nil {
		t.Fatal(err)
	}
	shortRoom := newRoom(t)
	if err := shortRoom.Restore(short); err != nil {
		t.Fatal(err)
	}
	if shortRoom.Trimmed() != log.all[0].Seq-1 {
		t.Fatalf("short restore: trimmed %d, want what the owner said, %d", shortRoom.Trimmed(), log.all[0].Seq-1)
	}
	watcher3, _, _, err := shortRoom.Join(ctx, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < logSize; i++ {
		if err := shortRoom.Chat("watcher", "filling"); err != nil {
			t.Fatal(err)
		}
		log.take(t, watcher3)
	}
	log.compare(t, shortRoom, "short restore, filled and turned")
}
