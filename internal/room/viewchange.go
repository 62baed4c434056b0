package room

import (
	"errors"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/wire"
)

// This file is the body of an EvPresentation: the run of entries by which
// the view a member holds becomes the view it should hold. The whole view
// is the same run made against the empty view, so there is one codec.
// Entries name variables and components by string: the document's
// variable table is not stable under a session (shared operations append
// derived variables, overlays add private ones), and the by-name run
// measures 9.5 B per scripted choice against 126 B for both maps — an
// index would buy under 8 B an event.

// ChangeTag says what one entry does to the view it is applied to.
type ChangeTag uint8

// Change tags. ChangeSet is the only one that carries a value.
const (
	ChangeSet           ChangeTag = iota + 1 // the variable takes Value
	ChangeShow                               // the component is visible
	ChangeHide                               // the component is present and hidden
	ChangeDropVariable                       // the variable leaves the outcome
	ChangeDropComponent                      // the component leaves the view
)

// ViewChange is one entry of a presentation's change.
type ViewChange struct {
	Tag   ChangeTag
	Name  string
	Value string
}

// Apply makes the entry's change to a view's two maps, in place.
func (c ViewChange) Apply(outcome cpnet.Outcome, visible map[string]bool) {
	switch c.Tag {
	case ChangeSet:
		outcome[c.Name] = c.Value
	case ChangeShow:
		visible[c.Name] = true
	case ChangeHide:
		visible[c.Name] = false
	case ChangeDropVariable:
		delete(outcome, c.Name)
	case ChangeDropComponent:
		delete(visible, c.Name)
	}
}

var errChangeTag = errors.New("room: unknown view change tag")

// eachChange calls fn for every entry by which the held view (nil: the
// empty view) differs from the new one: variables first, then components,
// each in the new view's schema order. Under one schema it compares by
// index; across schemas (a shared operation added a variable, an edit
// added a component, a viewer's overlay has private ones) by name. It
// allocates nothing; both views are read-only, so it runs outside the
// room lock.
func eachChange(held, view *document.Solved, fn func(ViewChange)) {
	s := view.Schema()
	if held != nil && held.Schema() == s {
		for i := range s.Len() {
			if held.ValueIndex(i) != view.ValueIndex(i) {
				fn(ViewChange{Tag: ChangeSet, Name: s.Variable(i).Name, Value: view.Value(i)})
			}
		}
		for j := range s.ComponentCount() {
			if held.Visible(j) != view.Visible(j) {
				fn(visibility(s.ComponentName(j), view.Visible(j)))
			}
		}
		return
	}
	var hs *document.Schema
	if held != nil {
		hs = held.Schema()
	}
	for i := range s.Len() {
		name := s.Variable(i).Name
		if hs != nil {
			if hi, ok := hs.VariableIndex(name); ok && held.Value(hi) == view.Value(i) {
				continue
			}
		}
		fn(ViewChange{Tag: ChangeSet, Name: name, Value: view.Value(i)})
	}
	if hs != nil {
		for i := range hs.Len() {
			if name := hs.Variable(i).Name; !hasVariable(s, name) {
				fn(ViewChange{Tag: ChangeDropVariable, Name: name})
			}
		}
	}
	for j := range s.ComponentCount() {
		name := s.ComponentName(j)
		if hs != nil {
			if hj, ok := hs.ComponentIndex(name); ok && held.Visible(hj) == view.Visible(j) {
				continue
			}
		}
		fn(visibility(name, view.Visible(j)))
	}
	if hs != nil {
		for j := range hs.ComponentCount() {
			if name := hs.ComponentName(j); !hasComponent(s, name) {
				fn(ViewChange{Tag: ChangeDropComponent, Name: name})
			}
		}
	}
}

func hasVariable(s *document.Schema, name string) bool {
	_, ok := s.VariableIndex(name)
	return ok
}

func hasComponent(s *document.Schema, name string) bool {
	_, ok := s.ComponentIndex(name)
	return ok
}

func visibility(name string, visible bool) ViewChange {
	if visible {
		return ViewChange{Tag: ChangeShow, Name: name}
	}
	return ViewChange{Tag: ChangeHide, Name: name}
}

// eachWholeEntry calls fn for every entry of a whole view given as maps:
// the form of an event made outside the room (see Event).
func eachWholeEntry(outcome cpnet.Outcome, visible map[string]bool, fn func(ViewChange)) {
	for k, v := range outcome {
		fn(ViewChange{Tag: ChangeSet, Name: k, Value: v})
	}
	for k, v := range visible {
		fn(visibility(k, v))
	}
}

// viewRef names one solved view, the engine's own and read-only. The
// zero viewRef is the empty view: what a member holds when it holds
// nothing the room can name.
type viewRef struct {
	id   uint64
	view *document.Solved
}

// setView makes ev the presentation that takes a member holding the view
// from to the view to: it points ev at both views and counts what
// differs, once, for the push budget.
func (ev *Event) setView(from, to viewRef) {
	ev.Base, ev.held = from.id, from.view
	ev.View, ev.view = to.id, to.view
	ev.changeBytes = 0
	eachChange(from.view, to.view, func(c ViewChange) {
		ev.changeBytes += int32(24 + len(c.Name) + len(c.Value))
	})
}

// appendChange writes the presentation part of an event: the two view
// ids and the count-prefixed run. A decoded event writes back the run it
// read. One made in the room has no run (see Event): it is computed here,
// at encode time and outside the room lock, by comparing the two solved
// views — which finds nothing for a decoded event whose run was empty, so
// the two forms cannot be mistaken for each other. One made outside the
// room carries a whole view as maps.
func (ev *Event) appendChange(e *wire.BodyEnc) {
	e.Uvarint(ev.Base)
	e.Uvarint(ev.View)
	if ev.Changes != nil {
		e.Uvarint(uint64(len(ev.Changes)))
		for i := range ev.Changes {
			appendViewChange(e, ev.Changes[i])
		}
		return
	}
	n := uint64(0)
	ev.eachEntry(func(ViewChange) { n++ })
	e.Uvarint(n)
	if n > 0 {
		ev.eachEntry(func(c ViewChange) { appendViewChange(e, c) })
	}
}

// eachEntry calls fn for each entry of the run a presentation not yet
// encoded makes: the change between its two solved views, or the whole
// view its maps carry.
func (ev *Event) eachEntry(fn func(ViewChange)) {
	if ev.view != nil {
		eachChange(ev.held, ev.view, fn)
	} else {
		eachWholeEntry(ev.Outcome, ev.Visible, fn)
	}
}

func appendViewChange(e *wire.BodyEnc, c ViewChange) {
	e.Byte(byte(c.Tag))
	e.String(c.Name)
	if c.Tag == ChangeSet {
		e.String(c.Value)
	}
}

// decodeChange reads what appendChange wrote: one slice for the run and
// the strings in it, no map. An empty run decodes as nil.
func (ev *Event) decodeChange(d *wire.Dec) error {
	ev.Base = d.Uvarint()
	ev.View = d.Uvarint()
	ev.Changes, ev.Outcome, ev.Visible = nil, nil, nil
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return d.Err()
	}
	ev.Changes = make([]ViewChange, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		c := ViewChange{Tag: ChangeTag(d.Byte()), Name: d.String()}
		switch c.Tag {
		case ChangeSet:
			c.Value = d.String()
		case ChangeShow, ChangeHide, ChangeDropVariable, ChangeDropComponent:
		default:
			if d.Err() == nil {
				return errChangeTag
			}
		}
		ev.Changes = append(ev.Changes, c)
	}
	return d.Err()
}
