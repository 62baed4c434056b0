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
// drops its oldest event when the consumer falls 1024 behind. The session
// therefore folds each pushed event the moment it arrives (admit, on the
// connection's read loop), before anything that can drop it. What the
// consumer later takes off Events() is already in the view. The pushes
// that race a join's or resume's response wait for it, parked: they are
// changes against the presentation it carries (settleLocked).

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
// A change made against the empty view (Base 0) is the whole view: a
// member's first presentation, which its join or resume response carries,
// or the one the server makes when it shed a presentation from the
// member's queue. It crosses the wire as a run like any other; an event
// that never did (the only in-process caller left is the benchmark's
// probe, besides tests) carries it as the new view's maps, the sender's
// own, which are copied in. A change with a Base has no such form: made in
// the room, it must go through the codec to get its run.
//
// A change made against a view the session does not hold is refused and
// flags the session: a presentation went missing between the room's queue
// and this session. Stragglers from a connection this one replaced never
// get here — they are older than the presentation the new connection's
// response carried, and the arrived gate passes them over.
func (s *Session) foldLocked(ev *room.Event) {
	if ev.Resync {
		s.resync = true
	}
	if ev.Kind != room.EvPresentation {
		return
	}
	if ev.Base != 0 && ev.Base != s.viewID {
		s.resync = true
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
	}
	s.viewID = ev.View
	for _, c := range ev.Changes {
		c.Apply(s.view.Outcome, s.view.Visible)
	}
}

// NeedsResync reports whether the server signalled that this session's
// event stream has a gap (its member queue overflowed and events were
// dropped). Replaying History clears the flag.
func (s *Session) NeedsResync() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resync
}
