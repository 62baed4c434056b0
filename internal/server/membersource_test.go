package server

import (
	"context"
	"testing"

	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// TestMemberSourceAllocatesOnlyThePayload runs a membership's drain the
// way a connection's writer does — kicked by the room, handed one sink for
// the source's life — and counts: taking an event off the queue, refunding
// it, encoding it and pushing it allocates the encoded payload and nothing
// else. The event the drain receives into lives on the heap (its address
// goes behind an interface in EncodeShared) — once per membership, in the
// source; as a local of Drain that is once per wake-up, and this count 2.
func TestMemberSourceAllocatesOnlyThePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	doc, err := workload.MedicalRecord("rec-fwd", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := room.New("fwd", doc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	member, _, _, err := r.Join(context.Background(), "solo")
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{stats: wire.NewStats()}
	s.sources.Add(1)
	src := &memberSource{s: s, member: member}
	kicks := 0
	member.SetNotify(func() { kicks++ }) // under the room lock, on this goroutine
	var last []byte
	sink := func(method string, payload []byte) {
		if method != proto.MEvent {
			panic("member source pushed " + method)
		}
		last = payload
	}
	if !src.Drain(sink) || last == nil { // the join's own announcement
		t.Fatal("the join's events were not drained from an open stream")
	}

	step := func() {
		last = nil
		if err := r.Chat("solo", "counted"); err != nil {
			t.Fatal(err)
		}
		if !src.Drain(sink) || last == nil {
			t.Fatal("a chat was not drained from an open stream")
		}
	}
	for r.Gauges().BufferedEvents < 1024 {
		step() // a change buffer still growing allocates on the room's account
	}
	kicks = 0
	if got := testing.AllocsPerRun(1000, step); got > 1 {
		t.Errorf("%v allocations per drained event, want 1 (the payload)", got)
	}
	if kicks != 1001 {
		t.Errorf("the room kicked %d times for 1001 events enqueued", kicks)
	}
	var ev room.Event
	if err := wire.DecodeBodyBytes(last, &ev); err != nil || ev.Kind != room.EvChat || ev.Text != "counted" {
		t.Errorf("the sink's last payload decodes to %+v, %v", ev, err)
	}
	if got := s.stats.Counter(CounterFanoutEvents); got < 1000 {
		t.Errorf("%d events counted as fanned out", got)
	}
	if err := r.Leave("solo"); err != nil {
		t.Fatal(err)
	}
	if kicks != 1002 {
		t.Errorf("%d kicks after the stream closed, want one more than the 1001 before", kicks)
	}
	if src.Drain(sink) {
		t.Error("the source reads as open on a closed stream")
	}
	s.sources.Wait() // the drain that saw the stream end released it
	if q := member.QueuedBytes(); q != 0 {
		t.Errorf("%d bytes still charged to the member after its stream ended", q)
	}
}
