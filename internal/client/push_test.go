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
// client between the frame and the stream, the session's view included.
// It costs what decoding the same payload into a variable that is already
// there costs, and nothing else — the event is decoded on onPush's frame
// and passes the session's gate and the stream's queue by value (behind
// wire.BodyDecoder it would move to the heap: one more). That decode is
// the two header strings every event has (room, actor) when the
// presentation changes nothing, and one slice plus a name and a value per
// entry when it changes k. Folding it into the view on the way allocates
// nothing: the session changes the maps it owns in place and builds none.
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
	const headerStrings = 2 // Room and Actor
	opts := Options{}
	opts.normalize()
	c := newClient("alice", nil, opts)
	sess := &Session{client: c, Room: "consult"}
	c.sessions["consult"] = sess
	// The view the session starts from, as a join hands it over.
	sess.ApplyEvent(room.Event{Room: "consult", Kind: room.EvPresentation, Outcome: view.Outcome, Visible: view.Visible})
	seq := uint64(1) // view ids follow it, and 0 is the empty view

	for _, tc := range []struct {
		name    string
		entries func(i int) []room.ViewChange
		k       int
	}{
		{"changes nothing", func(int) []room.ViewChange { return nil }, 0},
		{"changes two entries", func(i int) []room.ViewChange {
			return []room.ViewChange{
				{Tag: room.ChangeSet, Name: "ct", Value: []string{"segmented", "full"}[i%2]},
				{Tag: room.ChangeSet, Name: "xray", Value: []string{"hidden", "icon"}[i%2]},
			}
		}, 2},
	} {
		payloads := make([][]byte, runs+1) // AllocsPerRun warms up with one call
		first := seq
		for i := range payloads {
			seq++
			payloads[i], _ = room.MarshalEventBinary(room.Event{
				Seq: seq, Room: "consult", Actor: "alice", Kind: room.EvPresentation,
				Base: seq - 1, View: seq, Changes: tc.entries(i),
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
		if limit := float64(headerStrings); tc.k == 0 && want != limit {
			t.Errorf("%s: decoding it takes %v allocations, want the %v header strings", tc.name, want, limit)
		}
		if limit := float64(headerStrings + 1 + 2*tc.k); tc.k > 0 && want > limit {
			t.Errorf("%s: decoding it takes %v allocations, want at most %v (headers, one slice, a name and a value per entry)", tc.name, want, limit)
		}

		// The session holds view `first` before the run's first change.
		sess.mu.Lock()
		sess.viewID = first
		sess.mu.Unlock()
		var last room.Event
		next = 0
		got := testing.AllocsPerRun(runs, func() {
			c.onPush(proto.MEvent, wire.Body{Data: payloads[next]})
			next++
			last = <-c.Events()
		})
		if got != want {
			t.Errorf("%s: %v allocations per pushed presentation, want the %v its decode takes", tc.name, got, want)
		}
		if last.Seq != seq || last.Kind != room.EvPresentation || len(last.Changes) != tc.k || last.Outcome != nil || last.Visible != nil {
			t.Errorf("%s: the stream's last event is seq %d %v with %d entries and maps %v %v", tc.name, last.Seq, last.Kind, len(last.Changes), last.Outcome, last.Visible)
		}
		if sess.lastSeq != seq {
			t.Errorf("%s: the session's gate stands at %d after seq %d", tc.name, sess.lastSeq, seq)
		}

		if sess.NeedsResync() {
			t.Fatalf("%s: the session refused a change of the chain", tc.name)
		}

		// Taken off the stream, the event is already in the view: a consumer
		// that applies it again changes nothing.
		sess.ApplyEvent(last)
		if sess.NeedsResync() || sess.viewID != seq {
			t.Fatalf("%s: applying a folded event again moved the session (view id %d, resync %v)", tc.name, sess.viewID, sess.NeedsResync())
		}
	}
	if got := sess.View(); got.Outcome["ct"] != "segmented" || got.Outcome["xray"] != "hidden" || len(got.Outcome) != len(view.Outcome) || !reflect.DeepEqual(got.Visible, view.Visible) {
		t.Errorf("the session's view after the runs: %v", got)
	}

	// The exact-consumption check: a payload with a byte to spare, or one
	// short, never reaches the stream.
	full, _ := room.MarshalEventBinary(room.Event{Seq: seq + 1, Room: "consult", Kind: room.EvChat, Text: "x"})
	c.onPush(proto.MEvent, wire.Body{Data: append(append([]byte(nil), full...), 0)})
	c.onPush(proto.MEvent, wire.Body{Data: full[:len(full)-1]})
	select {
	case ev := <-c.Events():
		t.Errorf("a malformed push reached the stream as %+v", ev)
	default:
	}
	c.onPush(proto.MEvent, wire.Body{Data: full})
	if ev := <-c.Events(); ev.Text != "x" {
		t.Errorf("the well-formed push arrived as %+v", ev)
	}
}
