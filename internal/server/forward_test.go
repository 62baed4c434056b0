package server

import (
	"context"
	"testing"

	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// pushSink stands in for a peer: it keeps the last payload and says when
// it came.
type pushSink struct {
	got  chan struct{}
	last []byte
}

func (p *pushSink) PushRaw(method string, _ uint8, payload []byte) error {
	if method != proto.MEvent {
		panic("forwarder pushed " + method)
	}
	p.last = payload
	p.got <- struct{}{}
	return nil
}

// TestForwarderAllocatesOnlyThePayload runs the forwarder's own loop over
// a member's stream and counts: receiving an event, refunding it,
// encoding it and pushing it allocates the encoded payload and nothing
// else. The event the loop receives into lives on the heap (its address
// goes behind an interface in EncodeShared) — once per forwarder; a range
// variable or a declaration inside the loop makes that once per event,
// and this count 2.
func TestForwarderAllocatesOnlyThePayload(t *testing.T) {
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
	sink := &pushSink{got: make(chan struct{}, 1)}
	done := make(chan error, 1)
	go func() { done <- s.forwardEvents(sink, member) }()
	<-sink.got // the join's own announcement

	step := func() {
		if err := r.Chat("solo", "counted"); err != nil {
			t.Fatal(err)
		}
		<-sink.got
	}
	for r.Gauges().BufferedEvents < 1024 {
		step() // a change buffer still growing allocates on the room's account
	}
	if got := testing.AllocsPerRun(1000, step); got > 1 {
		t.Errorf("%v allocations per forwarded event, want 1 (the payload)", got)
	}
	var ev room.Event
	if err := wire.DecodeBodyBytes(sink.last, &ev); err != nil || ev.Kind != room.EvChat || ev.Text != "counted" {
		t.Errorf("the sink's last payload decodes to %+v, %v", ev, err)
	}
	if got := s.stats.Counter(CounterFanoutEvents); got < 1000 {
		t.Errorf("%d events counted as fanned out", got)
	}
	if err := r.Leave("solo"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("forwarder ended with %v on a closed stream", err)
	}
	if q := member.QueuedBytes(); q != 0 {
		t.Errorf("%d bytes still charged to the member after its stream ended", q)
	}
}
