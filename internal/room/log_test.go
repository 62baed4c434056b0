package room

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// sliceLog is the plain-slice reference a Log is held against: the kept
// events in order and the two marks, merged, trimmed and capped the
// obvious way.
type sliceLog struct {
	events       []Event
	seq, trimmed uint64
}

// cap drops what the trim mark covers, then the oldest beyond logSize,
// raising the trim mark to the last event dropped.
func (m *sliceLog) cap() {
	drop := 0
	for drop < len(m.events) && (m.events[drop].Seq <= m.trimmed || len(m.events)-drop > logSize) {
		drop++
	}
	if drop > 0 {
		m.trimmed = max(m.trimmed, m.events[drop-1].Seq)
		m.events = m.events[drop:]
	}
}

func (m *sliceLog) append(ev Event) {
	m.seq++
	ev.Seq = m.seq
	m.events = append(m.events, ev)
	m.cap()
}

func (m *sliceLog) merge(events []Event, seq, trimmed uint64) error {
	for i, ev := range events {
		if ev.Seq <= trimmed || ev.Seq > seq || (i > 0 && ev.Seq <= events[i-1].Seq) {
			return fmt.Errorf("event %d out of (%d, %d]", ev.Seq, trimmed, seq)
		}
	}
	if trimmed > seq {
		return fmt.Errorf("trimmed %d past seq %d", trimmed, seq)
	}
	last := m.trimmed
	if n := len(m.events); n > 0 {
		last = max(last, m.events[n-1].Seq)
	}
	for _, ev := range events {
		if ev.Seq > last {
			m.events = append(m.events, ev)
			last = ev.Seq
		}
	}
	m.seq, m.trimmed = max(m.seq, seq), max(m.trimmed, trimmed)
	m.cap()
	return nil
}

func (m *sliceLog) since(seq uint64) []Event {
	out := make([]Event, 0, len(m.events))
	for _, ev := range m.events {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

func (m *sliceLog) ofKind(kinds ...EventKind) []Event {
	var out []Event
	for _, ev := range m.events {
		for _, k := range kinds {
			if ev.Kind == k {
				out = append(out, ev)
			}
		}
	}
	return out
}

// marks are the cursors reads are compared at: both ends, the edges of
// the kept run, and a point inside it.
func (m *sliceLog) marks() []uint64 {
	marks := []uint64{0, m.trimmed, m.seq, m.seq + 5}
	if n := len(m.events); n > 0 {
		marks = append(marks, m.events[0].Seq-1, m.events[0].Seq, m.events[n/3].Seq, m.events[n-1].Seq-1, m.events[n-1].Seq)
	}
	return marks
}

// compare holds l's marks and the ends of its run against the model,
// and with every, its reads at each of the model's marks.
func (m *sliceLog) compare(t *testing.T, l *Log, at string, every bool) {
	t.Helper()
	if l.Seq() != m.seq || l.Trimmed() != m.trimmed || l.n != len(m.events) {
		t.Fatalf("%s: log at seq %d trimmed %d with %d events, model at %d, %d with %d",
			at, l.Seq(), l.Trimmed(), l.n, m.seq, m.trimmed, len(m.events))
	}
	if n := len(m.events); n > 0 && (l.at(0).Seq != m.events[0].Seq || l.at(n-1).Seq != m.events[n-1].Seq) {
		t.Fatalf("%s: log holds %d..%d, model %d..%d", at, l.at(0).Seq, l.at(n-1).Seq, m.events[0].Seq, m.events[n-1].Seq)
	}
	if !every {
		return
	}
	for _, since := range m.marks() {
		if got, want := l.AppendSince(nil, since), m.since(since); !sameEvents(got, want) {
			t.Fatalf("%s: AppendSince(%d) returns %d events from %s, want %d from %s",
				at, since, len(got), firstSeq(got), len(want), firstSeq(want))
		}
	}
}

// sameEvents compares two runs by what the walk sets in an event.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind || a[i].Text != b[i].Text || a[i].Keyword != b[i].Keyword {
			return false
		}
	}
	return true
}

func firstSeq(evs []Event) string {
	if len(evs) == 0 {
		return "nowhere"
	}
	return fmt.Sprintf("seq %d", evs[0].Seq)
}

// frame is a replication frame as the owner reads one off its log.
type frame struct {
	events       []Event
	seq, trimmed uint64
}

func readFrame(l *Log, since uint64) frame {
	return frame{l.AppendSince(nil, since), l.Seq(), l.Trimmed()}
}

// corrupt returns a copy of f that no log could hold, and how it is bad.
func corrupt(rng *rand.Rand, f frame) (frame, string) {
	bad := frame{append([]Event(nil), f.events...), f.seq, f.trimmed}
	n := len(bad.events)
	switch op := rng.Intn(4); {
	case op == 0 || n == 0:
		bad.events = append(bad.events, Event{Seq: bad.seq + 1 + uint64(rng.Intn(3)), Kind: EvChat})
		return bad, "an event past seq"
	case op == 1:
		bad.events[0].Seq = bad.trimmed - min(bad.trimmed, uint64(rng.Intn(2)))
		return bad, "an event at or below trimmed"
	case op == 2 && n > 1:
		i := 1 + rng.Intn(n-1)
		bad.events[i].Seq = bad.events[i-1].Seq
		return bad, "a repeated event"
	}
	bad.trimmed = bad.seq + 1
	return bad, "trimmed past seq"
}

// TestLogAgainstSliceModel walks seeded mixes of an owner's log and its
// standby's against plain-slice models. The owner appends, past logSize
// and round the ring several times, and consumes bare Seqs; now and then
// it runs on unflushed for more than a ring, so its next frame trims past
// everything the standby holds. The standby merges what the owner sends:
// incremental frames from a cursor at or a little behind it, so they
// overlap; whole resends; stale frames redelivered late, whose marks lag
// its own; the marks alone, with no events; and corrupted frames, which
// it must refuse without changing.
// The marks and the ends of the run are compared after every step, every
// read around the ring's edge and on every 64th step. Now and then a room takes
// over from the standby's log, and its readers — History, LogSince,
// Minutes, the gauge, a joiner's catch-up and a resume's replay — are
// held to the model too.
func TestLogAgainstSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			owner, standby Log
			om, sm         sliceLog
			sent           []frame
			array          *Event
			refused        int
		)
		for step := 0; step < 2000; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			// Every read is compared around the ring's edge, and on
			// every 64th step between.
			every := step%64 == 0 || owner.n >= logSize-8 && owner.n < logSize
			burst := 1 + rng.Intn(6)
			if rng.Intn(400) == 0 {
				burst = logSize + 50 + rng.Intn(200)
			}
			for k := 0; k < burst; k++ {
				if rng.Intn(8) == 0 {
					owner.next() // a presentation: a Seq, nothing buffered
					om.seq++
					continue
				}
				ev := Event{Room: "walk", Actor: "a", Kind: EvChat, Text: fmt.Sprint("line ", om.seq+1)}
				if rng.Intn(4) == 0 {
					ev.Kind, ev.Text, ev.Keyword = EvWordSearch, "", fmt.Sprint("kw", om.seq+1)
				}
				owner.append(&ev)
				om.append(ev)
			}
			om.compare(t, &owner, at+" (owner)", every)
			if owner.n == logSize {
				// A full ring stays in the array it filled.
				if array == nil {
					array = &owner.events[0]
				}
				if &owner.events[0] != array || len(owner.events) != logSize {
					t.Fatalf("%s: the owner's full ring moved or grew (%d slots)", at, len(owner.events))
				}
			}

			var f frame
			switch op := rng.Intn(10); {
			case op == 0:
				f = readFrame(&owner, 0) // a whole resend
			case op == 1 && len(sent) > 0:
				f = sent[rng.Intn(len(sent))] // a stale frame, delivered late
			case op == 3: // the marks alone
				f = frame{seq: owner.Seq(), trimmed: owner.Trimmed()}
			case op == 2:
				good := readFrame(&owner, sm.seq)
				bad, how := corrupt(rng, good)
				before := readFrame(&standby, 0)
				if err := standby.Merge(bad.events, bad.seq, bad.trimmed); err == nil {
					t.Fatalf("%s: a frame with %s was merged", at, how)
				}
				if err := sm.merge(bad.events, bad.seq, bad.trimmed); err == nil {
					t.Fatalf("%s: the model took a frame with %s", at, how)
				}
				if after := readFrame(&standby, 0); after.seq != before.seq || after.trimmed != before.trimmed || !sameEvents(after.events, before.events) {
					t.Fatalf("%s: a refused frame with %s changed the log", at, how)
				}
				refused++
				f = good
			default: // incremental, from a cursor at or a little behind the standby
				f = readFrame(&owner, sm.seq-min(sm.seq, uint64(rng.Intn(40))))
			}
			if err := standby.Merge(f.events, f.seq, f.trimmed); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if err := sm.merge(f.events, f.seq, f.trimmed); err != nil {
				t.Fatalf("%s: the model refused a frame the log took: %v", at, err)
			}
			sm.compare(t, &standby, at+" (standby)", every)
			if sent = append(sent, f); len(sent) > 50 {
				sent = sent[1:]
			}
			if step%1000 == 999 {
				takeOver(t, &standby, &sm, at)
			}
		}
		// Marks that trim through all the standby holds empty it, and a
		// stale frame delivered after them brings nothing back.
		for _, f := range []frame{{seq: om.seq, trimmed: om.seq}, sent[0]} {
			if err := standby.Merge(f.events, f.seq, f.trimmed); err != nil {
				t.Fatal(err)
			}
			if err := sm.merge(f.events, f.seq, f.trimmed); err != nil {
				t.Fatal(err)
			}
			sm.compare(t, &standby, fmt.Sprintf("seed %d, emptied", seed), true)
		}
		if om.trimmed < 2*logSize || refused == 0 {
			t.Fatalf("seed %d: the walk trimmed only to %d and refused %d frames", seed, om.trimmed, refused)
		}
	}
}

// takeOver builds a room from a copy of the standby's log, as a new
// owner does, and holds the room's readers to the model.
func takeOver(t *testing.T, standby *Log, m *sliceLog, at string) {
	t.Helper()
	at += " (takeover)"
	var l Log
	f := readFrame(standby, 0)
	if err := l.Merge(f.events, f.seq, f.trimmed); err != nil {
		t.Fatalf("%s: the standby's own log does not merge: %v", at, err)
	}
	r := newRoom(t)
	r.SetGrace(time.Minute)
	if err := r.Restore(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(Log{}); err == nil {
		t.Fatalf("%s: a second restore was taken", at)
	}
	if r.Seq() != m.seq || r.Trimmed() != m.trimmed || r.Gauges().BufferedEvents != len(m.events) {
		t.Fatalf("%s: room at seq %d trimmed %d with %d buffered, model at %d, %d with %d",
			at, r.Seq(), r.Trimmed(), r.Gauges().BufferedEvents, m.seq, m.trimmed, len(m.events))
	}
	for _, since := range m.marks() {
		if got, want := r.History(since), m.since(since); !sameEvents(got, want) {
			t.Fatalf("%s: History(%d) returns %d events from %s, want %d from %s",
				at, since, len(got), firstSeq(got), len(want), firstSeq(want))
		}
		got, seq, trimmed := r.LogSince(nil, since)
		if !sameEvents(got, m.since(since)) || seq != m.seq || trimmed != m.trimmed {
			t.Fatalf("%s: LogSince(%d) returns %d events at seq %d trimmed %d", at, since, len(got), seq, trimmed)
		}
	}
	mins := r.Minutes()
	if want := m.ofKind(EvChat); !sameEvents(mins.Chat, want) {
		t.Fatalf("%s: minutes hold %d chats from %s, want %d from %s", at, len(mins.Chat), firstSeq(mins.Chat), len(want), firstSeq(want))
	}
	if want := m.ofKind(EvWordSearch, EvSpeakerSearch); !sameEvents(mins.Searches, want) {
		t.Fatalf("%s: minutes hold %d searches, want %d", at, len(mins.Searches), len(want))
	}

	ctx := context.Background()
	guest, hist, _, err := r.Join(ctx, "guest")
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(hist, m.since(0)) {
		t.Fatalf("%s: a joiner is handed %d events from %s, want %d from %s",
			at, len(hist), firstSeq(hist), len(m.events), firstSeq(m.events))
	}
	// The join logged an event of its own, which a full ring makes room
	// for by trimming one more.
	rm := sliceLog{events: append(m.since(0), r.History(m.seq)...), trimmed: m.trimmed}
	rm.cap()
	r.Detach(guest)
	for _, since := range append(m.marks(), m.trimmed-min(m.trimmed, 1), rm.trimmed) {
		seq := r.Seq()
		guest, missed, _, complete, err := r.Resume(ctx, "guest", since)
		if err != nil {
			t.Fatal(err)
		}
		if want := rm.since(since); !sameEvents(missed, want) {
			t.Fatalf("%s: Resume(%d) replays %d events from %s, want %d from %s",
				at, since, len(missed), firstSeq(missed), len(want), firstSeq(want))
		}
		if want := since >= rm.trimmed && since <= seq; complete != want {
			t.Fatalf("%s: Resume(%d) complete = %v with trimmed %d and seq %d", at, since, complete, rm.trimmed, seq)
		}
		r.Detach(guest)
	}
}

// TestMergeOnAFullLogAllocatesNothing: a standby's log keeps the newest
// logSize events in order, counts what it dropped in its trim mark, and —
// the owner streams a frame per event or two — once full takes each
// frame in place: no allocation, and no copy of the ring amortized over
// the frames either.
func TestMergeOnAFullLogAllocatesNothing(t *testing.T) {
	var l Log
	seq := uint64(1)
	events := make([]Event, 2)
	step := func() {
		seq++
		events[0].Seq, events[1].Seq = seq-1, seq // one overlapping, one new
		if err := l.Merge(events, seq, max(seq, logSize)-logSize); err != nil {
			t.Fatal(err)
		}
	}
	for seq < 3*logSize {
		step()
	}
	check := func() {
		t.Helper()
		if l.n != logSize || l.Seq() != seq || l.Trimmed() != seq-logSize {
			t.Fatalf("after %d events: %d held, seq %d, trimmed %d", seq, l.n, l.Seq(), l.Trimmed())
		}
		for i, ev := range l.AppendSince(nil, 0) {
			if want := seq - logSize + 1 + uint64(i); ev.Seq != want {
				t.Fatalf("slot %d holds event %d, want %d", i, ev.Seq, want)
			}
		}
	}
	check()
	if !raceEnabled {
		const runs = 4 * logSize
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perMerge := testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&after)
		if perMerge != 0 {
			t.Errorf("%v allocations per frame on a full log", perMerge)
		}
		// AllocsPerRun makes one warm-up call besides the runs.
		if b := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); b >= 64 {
			t.Errorf("%.0f bytes allocated per frame on a full log, want under 64", b)
		}
		check()
	}
	if n := len(l.events); n != logSize {
		t.Errorf("the ring has %d slots for a bound of %d", n, logSize)
	}
	// An owner that trimmed further ahead drops the standby's prefix too.
	if err := l.Merge(nil, seq, seq-10); err != nil {
		t.Fatal(err)
	}
	if held := l.AppendSince(nil, 0); len(held) != 10 || held[0].Seq != seq-9 || l.Trimmed() != seq-10 {
		t.Errorf("after the owner trimmed to %d: %d held, trimmed %d", seq-10, len(held), l.Trimmed())
	}
}
