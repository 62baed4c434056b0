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
	"mmconf/internal/document"
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
}

// Follow starts following a member from the view its join or resume
// returned, which the session takes over as a JoinRoomResp hands it: whole
// and under no view id.
func Follow(roomName string, m *room.Member, view document.View) *Follower {
	f := &Follower{Member: m, Session: &client.Session{Room: roomName}}
	f.Session.ApplyEvent(room.Event{Room: roomName, Kind: room.EvPresentation, Outcome: view.Outcome, Visible: view.Visible})
	return f
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
			var out room.Event
			d := wire.NewDec(data)
			if err := out.DecodeBody(d); err != nil || d.Len() != 0 {
				return n, fmt.Errorf("%s: event seq %d does not decode exactly: %v (%d bytes left)", f.Member.Name, ev.Seq, err, d.Len())
			}
			if out.Seq <= f.LastSeq {
				return n, fmt.Errorf("%s: seq %d after seq %d", f.Member.Name, out.Seq, f.LastSeq)
			}
			f.LastSeq = out.Seq
			if out.Resync {
				f.Dropped++
			}
			if out.Kind == room.EvPresentation && enc != nil {
				if err := enc.note(&out, encoded); err != nil {
					return n, fmt.Errorf("%s: %w", f.Member.Name, err)
				}
			}
			f.Session.ApplyEvent(out)
		default:
			return n, nil
		}
	}
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
