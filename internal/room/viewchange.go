package room

import (
	"errors"
	"reflect"

	"mmconf/internal/cpnet"
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

// eachChange calls fn for every entry by which the held view differs from
// the new one, in no particular order. It allocates nothing; fn must not
// retain what it is given beyond the maps' own lifetime.
func eachChange(heldOutcome, outcome cpnet.Outcome, heldVisible, visible map[string]bool, fn func(ViewChange)) {
	kept := 0
	for k, v := range outcome {
		old, ok := heldOutcome[k]
		if ok {
			kept++
		}
		if !ok || old != v {
			fn(ViewChange{Tag: ChangeSet, Name: k, Value: v})
		}
	}
	if kept < len(heldOutcome) {
		for k := range heldOutcome {
			if _, ok := outcome[k]; !ok {
				fn(ViewChange{Tag: ChangeDropVariable, Name: k})
			}
		}
	}
	kept = 0
	for k, v := range visible {
		old, ok := heldVisible[k]
		if ok {
			kept++
		}
		if !ok || old != v {
			tag := ChangeHide
			if v {
				tag = ChangeShow
			}
			fn(ViewChange{Tag: tag, Name: k})
		}
	}
	if kept < len(heldVisible) {
		for k := range heldVisible {
			if _, ok := visible[k]; !ok {
				fn(ViewChange{Tag: ChangeDropComponent, Name: k})
			}
		}
	}
}

// viewRef names one solved view and points at its maps, which are the
// engine's own and read-only. The zero viewRef is the empty view: what a
// member holds when it holds nothing the room can name.
type viewRef struct {
	id      uint64
	outcome cpnet.Outcome
	visible map[string]bool
}

// setView makes ev the presentation that takes a member holding the view
// from to the view to: it points ev at both pairs of maps and counts what
// differs, once, for the push budget.
func (ev *Event) setView(from, to viewRef) {
	ev.Base, ev.heldOutcome, ev.heldVisible = from.id, from.outcome, from.visible
	ev.View, ev.Outcome, ev.Visible = to.id, to.outcome, to.visible
	ev.changeBytes = 0
	eachChange(from.outcome, to.outcome, from.visible, to.visible, func(c ViewChange) {
		ev.changeBytes += int32(24 + len(c.Name) + len(c.Value))
	})
}

// appendChange writes the presentation part of an event: the two view
// ids and the count-prefixed run. A decoded event writes back the run it
// read. One not yet encoded has no run (see Event): it is computed here,
// at encode time and outside the room lock, by comparing the maps — which
// finds nothing for a decoded event whose run was empty, so the two forms
// cannot be mistaken for each other.
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
	eachChange(ev.heldOutcome, ev.Outcome, ev.heldVisible, ev.Visible, func(ViewChange) { n++ })
	e.Uvarint(n)
	if n > 0 {
		eachChange(ev.heldOutcome, ev.Outcome, ev.heldVisible, ev.Visible, func(c ViewChange) { appendViewChange(e, c) })
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

// sameView reports whether two views are one: the same two maps, not
// equal ones. The engine hands every viewer of an evidence class the same
// solved View, maps included, so identity is what tells the classes of one
// reconfiguration apart (TestEncodeOnceFanOut fails if it stops doing so).
// Both maps count: a document with no variables solves to a nil Outcome
// for every class.
func sameView(aOutcome, bOutcome cpnet.Outcome, aVisible, bVisible map[string]bool) bool {
	return reflect.ValueOf(aOutcome).Pointer() == reflect.ValueOf(bOutcome).Pointer() &&
		reflect.ValueOf(aVisible).Pointer() == reflect.ValueOf(bVisible).Pointer()
}
