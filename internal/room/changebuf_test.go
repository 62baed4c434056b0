package room

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mmconf/internal/media/voice"
)

// sliceLog is the plain-slice reference the ring is held against: every
// broadcast event ever, of which the last changeBufferSize count as
// buffered.
type sliceLog struct{ all []Event }

func (l *sliceLog) kept() []Event {
	if cut := len(l.all) - changeBufferSize; cut > 0 {
		return l.all[cut:]
	}
	return l.all
}

func (l *sliceLog) trimmed() uint64 {
	if cut := len(l.all) - changeBufferSize; cut > 0 {
		return l.all[cut-1].Seq
	}
	return 0
}

func (l *sliceLog) since(seq uint64) []Event {
	var out []Event
	for _, ev := range l.kept() {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

func (l *sliceLog) ofKind(kinds ...EventKind) []Event {
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
func (l *sliceLog) take(t *testing.T, m *Member) {
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

// compare holds every read of the change buffer against the reference.
func (l *sliceLog) compare(t *testing.T, r *Room, at string) {
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

func firstSeq(evs []Event) string {
	if len(evs) == 0 {
		return "nowhere"
	}
	return fmt.Sprintf("seq %d", evs[0].Seq)
}

// TestChangeBufferRingAgainstSlice drives a room through more than two
// full turns of its change buffer and holds History, Minutes, Trimmed,
// the gauge, a late Join's history and Resume's replay against a plain
// slice at every stage: before the ring fills, at the edge, one past it,
// mid-turn and after each wrap.
func TestChangeBufferRingAgainstSlice(t *testing.T) {
	r := newRoom(t)
	r.SetGrace(time.Minute)
	ctx := context.Background()
	watcher, _, _, err := r.Join(ctx, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	var log sliceLog
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
	visits := []int{10, changeBufferSize - 20, changeBufferSize + 1, changeBufferSize + 500, 2 * changeBufferSize, 2*changeBufferSize + 137}
	for i := 0; len(log.all) < 2*changeBufferSize+200; i++ {
		act(i)
		n := len(log.all)
		at := fmt.Sprintf("after %d events", n)
		if edge := n % changeBufferSize; edge <= 8 || edge >= changeBufferSize-8 || i%97 == 0 {
			log.compare(t, r, at)
		}
		if len(visits) > 0 && n >= visits[0] {
			visits = visits[1:]
			guests(at)
			log.compare(t, r, at+" and the guests")
		}
		if r.buf.len() == changeBufferSize {
			// A full ring stays in the array it filled: the buffer
			// this replaces was re-sliced off the end of its array
			// and grown afresh every few hundred events.
			if array == nil {
				array = &r.buf.events[0]
			}
			if &r.buf.events[0] != array || cap(r.buf.events) != changeBufferSize {
				t.Fatalf("%s: the full ring moved or grew (%d slots)", at, cap(r.buf.events))
			}
		}
	}
	if len(visits) != 0 {
		t.Fatalf("the walk ended with %d guest visits to go", len(visits))
	}
	if log.trimmed() < changeBufferSize {
		t.Fatalf("the walk trimmed only to %d: not two turns", log.trimmed())
	}

	// A standby restores a log longer than the buffer: it keeps the tail,
	// says what it dropped, and carries on from there.
	restored := newRoom(t)
	if err := restored.Restore(log.all, r.Seq(), 0); err != nil {
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

	// A short log restores whole, into a buffer that then fills and turns.
	short := newRoom(t)
	log = sliceLog{all: append([]Event(nil), log.kept()[:40]...)}
	if err := short.Restore(log.all, log.all[39].Seq+3, log.all[0].Seq-1); err != nil {
		t.Fatal(err)
	}
	if short.Trimmed() != log.all[0].Seq-1 {
		t.Fatalf("short restore: trimmed %d, want what the owner said, %d", short.Trimmed(), log.all[0].Seq-1)
	}
	watcher3, _, _, err := short.Join(ctx, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < changeBufferSize; i++ {
		if err := short.Chat("watcher", "filling"); err != nil {
			t.Fatal(err)
		}
		log.take(t, watcher3)
	}
	log.compare(t, short, "short restore, filled and turned")
}

// choiceAllocations measures the allocations of one choice in a
// four-member room whose members keep up, its change buffer already full;
// tap, when non-nil, is installed as the room's replicator first.
func choiceAllocations(t *testing.T, tap func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	r := newRoom(t)
	if tap != nil {
		r.SetReplicator(tap)
	}
	ctx := context.Background()
	var members []*Member
	for _, name := range []string{"a", "b", "c", "d"} {
		m, _, _, err := r.Join(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	i := 0
	step := func() {
		i++
		if err := r.Choice(ctx, "a", "ct", []string{"segmented", "full"}[i%2]); err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			for len(m.Events()) > 0 {
				m.Consumed(<-m.Events())
			}
		}
	}
	for r.buf.len() < changeBufferSize {
		step() // fill the ring first: growing it is not the choice's cost
	}
	return testing.AllocsPerRun(500, step)
}

// TestChoiceAllocations pins what one choice costs a four-member room
// whose members keep up: one solved view for the four of them — the
// evidence re-pinned in the engine's own vector, the completion re-solved
// by propagation into one Solved that holds both its vectors, no map —
// and a shared encoding slot for the choice's fan-out and one for the
// presentation the four share, nothing per member: what differs between
// the view they hold and the new one is found when the presentation is
// encoded, not here. Measured 3 allocations; each further evidence class
// is one more. It was 11 while a solve swept the whole network into
// fresh maps, and 35 before one solve served a class.
func TestChoiceAllocations(t *testing.T) {
	if got := choiceAllocations(t, nil); got > 3 {
		t.Errorf("%v allocations per choice in a four-member room, want at most 3", got)
	}
}

// TestTappedChoiceAllocations: being replicated costs the room nothing
// per choice. The tap is told that the log moved and carries no event, so
// none is copied for it; when it took the event's address, each broadcast
// put one more copy on the heap (352 B).
func TestTappedChoiceAllocations(t *testing.T) {
	taps := 0
	untapped := choiceAllocations(t, nil)
	tapped := choiceAllocations(t, func() { taps++ })
	if tapped != untapped {
		t.Errorf("%v allocations per choice with a replicator installed, %v without", tapped, untapped)
	}
	if taps == 0 {
		t.Errorf("the replicator was never told of a choice")
	}
}
