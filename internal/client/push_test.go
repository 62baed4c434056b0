package client

import (
	"reflect"
	"testing"

	"mmconf/internal/core"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// decodeSink is where the reference decode of TestPushDecodeAllocations
// lands: a package variable is not allocated per decode.
var decodeSink room.Event

// TestPushDecodeAllocations pins what a pushed presentation costs the
// client between the frame and the event stream: the view's two maps and
// the strings in them, counted by decoding the same payload into a
// variable that is already there, and nothing else — the event is decoded
// on onPush's frame and passes the session's gate and the stream's queue
// by value. Decoding it behind wire.BodyDecoder (body.Decode) moves it to
// the heap and makes this one more.
func TestPushDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	doc, err := workload.MedicalRecord("rec-push", 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	view, err := e.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 300
	payloads := make([][]byte, runs+1) // AllocsPerRun warms up with one call
	for i := range payloads {
		payloads[i], _ = room.MarshalEventBinary(room.Event{
			Seq: uint64(i + 1), Room: "consult", Actor: "alice", Kind: room.EvPresentation,
			Outcome: view.Outcome, Visible: view.Visible,
		})
	}

	next := 0
	want := testing.AllocsPerRun(runs, func() {
		d := wire.NewDec(payloads[next])
		next++
		if err := decodeSink.DecodeBody(d); err != nil {
			t.Fatal(err)
		}
	})

	opts := Options{}
	opts.normalize()
	c := newClient("alice", nil, opts)
	gate := &Session{client: c, Room: "consult"}
	c.sessions["consult"] = gate
	var last room.Event
	next = 0
	got := testing.AllocsPerRun(runs, func() {
		c.onPush(proto.MEvent, wire.Body{Data: payloads[next]})
		next++
		last = <-c.Events()
	})
	if got != want {
		t.Errorf("%v allocations per pushed presentation, want the %v its maps and strings take", got, want)
	}
	if last.Seq != runs+1 || last.Kind != room.EvPresentation || !reflect.DeepEqual(last.Outcome, view.Outcome) || !reflect.DeepEqual(last.Visible, view.Visible) {
		t.Errorf("the stream's last event is seq %d %v with %d outcome entries", last.Seq, last.Kind, len(last.Outcome))
	}
	if gate.lastSeq != runs+1 {
		t.Errorf("the session's gate stands at %d after %d events", gate.lastSeq, runs+1)
	}

	// The exact-consumption check: a payload with a byte to spare, or one
	// short, never reaches the stream.
	whole, _ := room.MarshalEventBinary(room.Event{Seq: runs + 2, Room: "consult", Kind: room.EvChat, Text: "x"})
	c.onPush(proto.MEvent, wire.Body{Data: append(append([]byte(nil), whole...), 0)})
	c.onPush(proto.MEvent, wire.Body{Data: whole[:len(whole)-1]})
	select {
	case ev := <-c.Events():
		t.Errorf("a malformed push reached the stream as %+v", ev)
	default:
	}
	c.onPush(proto.MEvent, wire.Body{Data: whole})
	if ev := <-c.Events(); ev.Text != "x" {
		t.Errorf("the well-formed push arrived as %+v", ev)
	}
}
