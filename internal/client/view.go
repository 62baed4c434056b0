package client

import (
	"maps"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/room"
)

// This file is the session's view: the maps it owns, and how a pushed
// presentation changes them.
//
// A presentation is a change against the one before it, so the session
// must see every one, in order — and the client sheds: the local stream
// drops its oldest event when the consumer falls 1024 behind, and the
// pushes parked during a resume are bounded too. The session therefore
// folds each pushed event the moment it arrives (admit, on the
// connection's read loop), before anything that can drop it. What the
// consumer later takes off Events() is already in the view.

// View returns a copy of the latest presentation for this user: the
// session's own maps change in place with every pushed presentation.
func (s *Session) View() document.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return document.View{Outcome: maps.Clone(s.view.Outcome), Visible: maps.Clone(s.view.Visible)}
}

// ApplyEvent folds into the session an event that did not reach it over
// its client's connection: one a test or a probe made, or took off a
// member's queue and put through the codec. EvPresentation events update
// the view, and an event carrying the Resync hint flags the session
// (NeedsResync). An event from Events() was folded when it arrived, and
// applying it again does nothing, so a consumer may pass every event it
// receives.
func (s *Session) ApplyEvent(ev room.Event) {
	if ev.Room != s.Room {
		return
	}
	s.mu.Lock()
	if ev.Seq == 0 || ev.Seq > s.arrived {
		s.foldLocked(&ev)
	}
	s.mu.Unlock()
}

// foldLocked takes in what an event tells the session: the Resync hint —
// the server dropped older events from this member's queue, so the local
// stream has a gap to fill from History — and, for a presentation, its
// change, applied to the session's maps in place.
//
// A change made against the empty view (Base 0) is the whole view. It
// crosses the wire as a run like any other; an event that never did (the
// only in-process caller left is the benchmark's probe, besides tests)
// carries it as the new view's maps, the sender's own, which are copied
// in. A change with a Base has no such form: made in the room, it must go
// through the codec to get its run.
//
// A change made against a view the session does not hold is refused. The
// session holds a view under no id after a join or a resume, whose
// response carries one; the member the server made for it holds nothing,
// so a whole presentation is on its way and a change that arrives before
// it is a straggler from the member this connection was before. Otherwise
// a presentation went missing between the room's queue and this session,
// which flags it: the server sheds only with a whole presentation to
// follow, and nothing here sheds before folding.
func (s *Session) foldLocked(ev *room.Event) {
	if ev.Resync {
		s.resync = true
	}
	if ev.Kind != room.EvPresentation {
		return
	}
	if ev.Base != 0 && ev.Base != s.viewID {
		if s.viewID != 0 {
			s.resync = true
		}
		return
	}
	if s.view.Outcome == nil {
		s.view.Outcome = cpnet.Outcome{}
	}
	if s.view.Visible == nil {
		s.view.Visible = map[string]bool{}
	}
	if ev.Base == 0 {
		clear(s.view.Outcome)
		clear(s.view.Visible)
		maps.Copy(s.view.Outcome, ev.Outcome)
		maps.Copy(s.view.Visible, ev.Visible)
		s.whole = true
	}
	s.viewID = ev.View
	for _, c := range ev.Changes {
		c.Apply(s.view.Outcome, s.view.Visible)
	}
}

// adoptViewLocked installs the view a join or resume response carried,
// under no id — unless a whole presentation arrived since the request went
// out: the server pushes to the member it made before it answers, so that
// presentation is the newer of the two.
func (s *Session) adoptViewLocked(outcome cpnet.Outcome, visible map[string]bool) {
	if s.whole {
		return
	}
	s.view, s.viewID = document.View{Outcome: outcome, Visible: visible}, 0
}

// NeedsResync reports whether the server signalled that this session's
// event stream has a gap (its member queue overflowed and events were
// dropped). Replaying History clears the flag.
func (s *Session) NeedsResync() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resync
}
