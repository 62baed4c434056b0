// Package roomtest is the check a room's pushed presentations are held
// to, kept where any test that drives a room can call it (the seeded
// walk in internal/room does; a cluster simulator can): a member's
// client-side session, fed by the member's queue through the real codec,
// must show the view a fresh solve gives that member, and the push path
// must encode each presentation once per (view held, new view) class.
package roomtest

import (
	"fmt"
	"reflect"

	"mmconf/internal/client"
	"mmconf/internal/core"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Follower is the client half of one membership: what the server's
// push path and the client's push handler do between a member's queue
// and a session's view, without the connection between them.
type Follower struct {
	Member  *room.Member
	Session *client.Session
	// LastSeq is the Seq of the last event drained; Dropped counts the
	// Resync hints seen.
	LastSeq uint64
	Dropped int
	// first is the id of the view the join or resume response carried,
	// until the first presentation pushed after it is checked against it.
	first uint64
}

// Follow starts following a member from the first presentation its join
// or resume returned, folded through the codec like any push.
func Follow(roomName string, m *room.Member, first room.Event) (*Follower, error) {
	f := &Follower{Member: m, Session: &client.Session{Room: roomName}}
	if first.Kind != room.EvPresentation || first.Base != 0 || first.View == 0 {
		return nil, fmt.Errorf("%s: a join or resume returned %v with base %d and view %d, not a whole view under an id", m.Name, first.Kind, first.Base, first.View)
	}
	data, _ := first.EncodeShared()
	if err := f.take(data); err != nil {
		return nil, err
	}
	f.first = first.View
	return f, nil
}

// Encodes tells whether the push path encoded each presentation once per
// class across every follower of a room. A presentation's class is the
// pair (id of the view it is made against, id of the view it leaves);
// the copy that carries a member's Resync hint is that member's own.
type Encodes struct {
	seen map[[2]uint64]bool
	// Events and Ran count the presentations drained and the encodes they
	// cost.
	Events, Ran int
}

// note records one drained presentation and whether draining it ran the
// encode; it returns an error when that is not what its class calls for.
func (e *Encodes) note(ev *room.Event, encoded bool) error {
	e.Events++
	if encoded {
		e.Ran++
	}
	if ev.Resync {
		if !encoded {
			return fmt.Errorf("presentation seq %d carries a Resync hint and a shared encoding", ev.Seq)
		}
		return nil
	}
	if e.seen == nil {
		e.seen = make(map[[2]uint64]bool)
	}
	class := [2]uint64{ev.Base, ev.View}
	if encoded == e.seen[class] {
		return fmt.Errorf("presentation seq %d of class (held %d, new %d): encode ran = %v, class seen before = %v",
			ev.Seq, ev.Base, ev.View, encoded, e.seen[class])
	}
	e.seen[class] = true
	return nil
}

// Drain takes every event queued for the member, as the server's push
// path does (refund, shared encode), decodes it as the client's push
// handler does (exact consumption) and applies it to the session. It
// returns how many events it took. enc may be nil.
func (f *Follower) Drain(enc *Encodes) (int, error) {
	n := 0
	for {
		select {
		case ev, open := <-f.Member.Events():
			if !open {
				return n, nil
			}
			n++
			f.Member.Consumed(ev)
			data, encoded := ev.EncodeShared()
			if err := f.take(data); err != nil {
				return n, err
			}
			if ev.Kind != room.EvPresentation {
				continue
			}
			// The view the response carried is what the member holds: the
			// first presentation after it is a change against it, not a
			// second whole view — unless the queue shed it.
			if f.first != 0 && f.Member.Drops() == 0 && ev.Base != f.first {
				return n, fmt.Errorf("%s: first presentation after the join's (view %d) is made against view %d", f.Member.Name, f.first, ev.Base)
			}
			f.first = 0
			if enc != nil {
				if err := enc.note(&ev, encoded); err != nil {
					return n, fmt.Errorf("%s: %w", f.Member.Name, err)
				}
			}
		default:
			return n, nil
		}
	}
}

// take decodes one event as the client's push handler does (exact
// consumption, ascending Seq) and applies it to the session.
func (f *Follower) take(data []byte) error {
	var out room.Event
	d := wire.NewDec(data)
	if err := out.DecodeBody(d); err != nil || d.Len() != 0 {
		return fmt.Errorf("%s: an event does not decode exactly: %v (%d bytes left)", f.Member.Name, err, d.Len())
	}
	if out.Seq <= f.LastSeq {
		return fmt.Errorf("%s: seq %d after seq %d", f.Member.Name, out.Seq, f.LastSeq)
	}
	f.LastSeq = out.Seq
	if out.Resync {
		f.Dropped++
	}
	f.Session.ApplyEvent(out)
	return nil
}

// CheckView holds a session's view against a fresh read of the engine
// for viewer (the member itself, or the presenter while a broadcast is
// on).
func CheckView(s *client.Session, e *core.Engine, viewer string) error {
	want, err := e.ViewFor(viewer)
	if err != nil {
		return err
	}
	got := s.View()
	if !reflect.DeepEqual(got.Outcome, want.Outcome) || !reflect.DeepEqual(got.Visible, want.Visible) {
		return fmt.Errorf("session shows\n%v %v\nand the engine solves, for %s,\n%v %v", got.Outcome, got.Visible, viewer, want.Outcome, want.Visible)
	}
	return nil
}
