package room

import (
	"fmt"
	"sync/atomic"
)

// This file implements the "dynamic event triggers" the paper lists as
// future work (§6): a room can carry rules that fire automatically when a
// matching event occurs — e.g. "when any partner's keyword search hits,
// switch the voice component to its audio form for everyone", or "when a
// partner freezes an object, post a chat notice". Trigger actions run
// through the same room operations as human actions, so they propagate
// and appear in the room's log like everything else.

// TriggerFunc decides whether and how to react to an event. It runs
// without the room lock held; it may call any room method. Returning an
// error deactivates the trigger (a misbehaving rule must not wedge the
// room forever).
type TriggerFunc func(r *Room, ev Event) error

// Trigger is one installed rule.
type Trigger struct {
	ID   uint64
	Name string
	// Kinds filters which event kinds the trigger sees (nil = all).
	Kinds []EventKind
	fn    TriggerFunc
	// fired counts activations.
	fired atomic.Int64
	// active is cleared when the function errors.
	active atomic.Bool
}

// Fired returns how many times the trigger has run.
func (t *Trigger) Fired() int64 { return t.fired.Load() }

// Active reports whether the trigger is still enabled.
func (t *Trigger) Active() bool { return t.active.Load() }

// triggerActor is the synthetic actor name trigger-initiated events carry.
const triggerActor = "system/trigger"

// AddTrigger installs a rule. Trigger functions are invoked sequentially,
// in installation order, after the originating event has been broadcast;
// events produced *by* triggers do not re-enter trigger evaluation
// (no cascades, by design — a cascade of rules editing the document could
// never be debugged from a screenshot).
func (r *Room) AddTrigger(name string, kinds []EventKind, fn TriggerFunc) (*Trigger, error) {
	if name == "" {
		return nil, fmt.Errorf("room %s: empty trigger name", r.Name)
	}
	if fn == nil {
		return nil, fmt.Errorf("room %s: nil trigger function", r.Name)
	}
	r.mu.Lock()
	defer r.unlock()
	r.triggerSeq++
	t := &Trigger{ID: r.triggerSeq, Name: name, Kinds: append([]EventKind(nil), kinds...), fn: fn}
	t.active.Store(true)
	r.triggers = append(r.triggers, t)
	if r.triggerCh == nil && !r.closed {
		r.triggerCh = make(chan Event, 256)
		r.triggerDone = make(chan struct{})
		go r.triggerLoop(r.triggerCh, r.triggerDone)
	}
	return t, nil
}

// triggerLoop dispatches events to installed triggers asynchronously, so
// trigger bodies can call room methods without deadlocking. The first
// AddTrigger starts it; Close ends it.
func (r *Room) triggerLoop(ch <-chan Event, done chan<- struct{}) {
	defer close(done)
	for ev := range ch {
		r.runTriggers(ev)
	}
}

// RemoveTrigger uninstalls a rule by id.
func (r *Room) RemoveTrigger(id uint64) error {
	r.mu.Lock()
	defer r.unlock()
	for i, t := range r.triggers {
		if t.ID == id {
			r.triggers = append(r.triggers[:i], r.triggers[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("room %s: no trigger %d", r.Name, id)
}

// Triggers lists installed triggers in installation order.
func (r *Room) Triggers() []*Trigger {
	r.mu.Lock()
	defer r.unlock()
	return append([]*Trigger(nil), r.triggers...)
}

// runTriggers evaluates rules against an event. Called WITHOUT the room
// lock (trigger bodies call back into room methods). Events whose actor
// is the trigger system are skipped to prevent cascades.
func (r *Room) runTriggers(ev Event) {
	if ev.Actor == triggerActor || ev.Kind == EvPresentation {
		return
	}
	r.mu.Lock()
	rules := append([]*Trigger(nil), r.triggers...)
	r.unlock()
	for _, t := range rules {
		if !t.active.Load() {
			continue
		}
		if len(t.Kinds) > 0 {
			match := false
			for _, k := range t.Kinds {
				if k == ev.Kind {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		t.fired.Add(1)
		if err := t.fn(r, ev); err != nil {
			t.active.Store(false)
		}
	}
}

// SystemChoice records a presentation choice on behalf of the trigger
// system (triggers are not room members). It is also the hook the
// interaction server can use for measured environment changes.
func (r *Room) SystemChoice(variable, value string) error {
	r.mu.Lock()
	defer r.unlock()
	if len(r.members) == 0 {
		return fmt.Errorf("room %s: no members to present to", r.Name)
	}
	// Apply through the engine as an environment pin so no member "owns"
	// the choice.
	if err := r.engine.SetEnvironment(variable, value); err != nil {
		return err
	}
	r.broadcastLocked(Event{Actor: triggerActor, Kind: EvChoice, Variable: variable, Value: value}, true)
	return nil
}

// SystemChat posts a notice on behalf of the trigger system.
func (r *Room) SystemChat(text string) error {
	r.mu.Lock()
	defer r.unlock()
	r.broadcastLocked(Event{Actor: triggerActor, Kind: EvChat, Text: text}, false)
	return nil
}
