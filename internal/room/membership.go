package room

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mmconf/internal/obs"
)

// This file is membership and sessions: joining and leaving, and the
// detach / resume / expire life of a session whose connection dropped.

// SetGrace sets how long a detached session survives before expiring
// into a full leave. With d <= 0, Detach degrades to an immediate leave.
func (r *Room) SetGrace(d time.Duration) {
	r.mu.Lock()
	defer r.unlock()
	r.grace = d
}

// OnSessionExpire installs a hook observing detached sessions that ran
// out their grace period. The hook runs outside the room lock.
func (r *Room) OnSessionExpire(fn func(user string)) {
	r.mu.Lock()
	defer r.unlock()
	r.expireHook = fn
}

// Join adds a member, replays the log's buffer to them as a catch-up
// snapshot, and announces the join to everyone. The member's first
// presentation — its whole view, under an id it then holds — is returned,
// not queued: the join's response carries it, and what is pushed next,
// from the join's own reconfiguration on, is a change against it. A
// cancelled ctx aborts before any state changes — the request's client is
// already gone, so admitting it would strand a membership nobody drains.
func (r *Room) Join(ctx context.Context, name string) (*Member, []Event, Event, error) {
	r.mu.Lock()
	defer r.unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, Event{}, fmt.Errorf("room %s: join %s: %w", r.Name, name, err)
	}
	if r.closed {
		return nil, nil, Event{}, fmt.Errorf("room %s: closed", r.Name)
	}
	if _, dup := r.members[name]; dup {
		return nil, nil, Event{}, fmt.Errorf("room %s: member %q already present", r.Name, name)
	}
	// A fresh join supersedes any detached session under the same name:
	// the old session leaves for real (its engine state and freezes are
	// retracted) before the new one enters, so a client that gave up on
	// resuming is never blocked by its own ghost.
	if t, ok := r.detached[name]; ok {
		t.Stop()
		delete(r.detached, name)
		if err := r.removeLocked(name); err != nil {
			return nil, nil, Event{}, err
		}
	}
	// During a broadcast this is the joiner's own view; the join's
	// reconfiguration brings it to the presenter's.
	if err := r.engine.AddViewer(name); err != nil {
		return nil, nil, Event{}, err
	}
	view, err := r.engine.Solved(name)
	if err != nil {
		return nil, nil, Event{}, err
	}
	m := &Member{Name: name, room: r, ch: make(chan Event, memberQueueSize)}
	r.members[name] = m
	history := r.log.AppendSince(nil, 0)
	first := r.stampLocked(m, view)
	m.held = viewRef{first.View, first.view}
	push := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvJoin}, true)
	push.End()
	return m, history, first, nil
}

// Leave removes a member, retracts their choices, and reconfigures the
// remaining members' presentations if needed. A detached session may
// also Leave, ending its grace period early.
func (r *Room) Leave(name string) error {
	r.mu.Lock()
	defer r.unlock()
	if t, ok := r.detached[name]; ok {
		t.Stop()
		delete(r.detached, name)
		return r.removeLocked(name)
	}
	m, ok := r.members[name]
	if !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, name)
	}
	delete(r.members, name)
	m.endLocked()
	return r.removeLocked(name)
}

// removeLocked finishes a departure for a name already out of the member
// map (left, evicted, or expired from detachment): broadcaster handoff,
// engine retraction, freeze release, and the EvLeave announcement.
// Callers hold r.mu.
func (r *Room) removeLocked(name string) error {
	presenting := r.broadcaster == name
	if presenting {
		r.broadcaster = ""
		r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvBroadcastStop}, false)
	}
	changed, err := r.engine.Leave(name)
	if err != nil {
		return err
	}
	// The members mirrored the presenter's view: with the broadcast over
	// they are due their own, whether or not the leave retracted a choice.
	changed = changed || presenting
	// Release any freezes the departing member held.
	for id, holder := range r.frozen {
		if holder == name {
			delete(r.frozen, id)
			r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvRelease, ObjectID: id}, false)
		}
	}
	r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvLeave}, changed)
	return nil
}

// ErrNoSession reports a Resume for a (user, room) pair with no live
// detached session — it expired, never existed, or already resumed.
var ErrNoSession = errors.New("room: no detached session")

// Detach converts a live membership into a detached session: the member
// channel closes (its consumer is told) but the engine membership,
// choices, and freezes stay in place for a grace period so the same user
// can Resume without the room observing a leave. The member handle
// identifies the session: if the name's live membership is a different
// handle (the user already resumed on a new connection and this is a
// stale eviction of the old one), Detach is a no-op. It reports whether
// a detached session is now pending; false means nothing was detached or
// the grace period is disabled and the membership was fully removed.
func (r *Room) Detach(m *Member) bool {
	r.mu.Lock()
	defer r.unlock()
	name := m.Name
	cur, ok := r.members[name]
	if !ok || cur != m {
		return false
	}
	delete(r.members, name)
	m.endLocked()
	if r.grace <= 0 || r.closed {
		r.removeLocked(name)
		return false
	}
	r.detached[name] = time.AfterFunc(r.grace, func() { r.expireSession(name) })
	return true
}

// expireSession runs when a detached session's grace timer fires: if the
// session is still detached (not resumed, not superseded) it becomes a
// full leave, and the expire hook is told.
func (r *Room) expireSession(name string) {
	r.mu.Lock()
	if r.closed {
		r.unlock()
		return
	}
	if _, ok := r.detached[name]; !ok {
		r.unlock()
		return // resumed, superseded, or left while the timer fired
	}
	delete(r.detached, name)
	r.removeLocked(name)
	hook := r.expireHook
	r.unlock()
	if hook != nil {
		hook(name)
	}
}

// Resume revives a detached session: the member re-enters under its
// retained engine state (choices, freezes, broadcast role untouched) and
// receives exactly the buffered events with Seq greater than since, and,
// as Join does, its first presentation. complete reports whether that
// replay covers everything the member missed — false when the change
// buffer was trimmed past since (or since is from another room
// incarnation), in which case the client must treat its local state as
// stale and do a full catch-up.
func (r *Room) Resume(ctx context.Context, name string, since uint64) (*Member, []Event, Event, bool, error) {
	r.mu.Lock()
	defer r.unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, Event{}, false, fmt.Errorf("room %s: resume %s: %w", r.Name, name, err)
	}
	if r.closed {
		return nil, nil, Event{}, false, fmt.Errorf("room %s: closed", r.Name)
	}
	t, wasDetached := r.detached[name]
	old, wasLive := r.members[name]
	if !wasDetached && !wasLive {
		return nil, nil, Event{}, false, fmt.Errorf("room %s: resume %s: %w", r.Name, name, ErrNoSession)
	}
	// During a broadcast the member mirrors the presenter, like everyone.
	view, err := r.engine.Solved(r.viewerLocked(name))
	if err != nil {
		return nil, nil, Event{}, false, err
	}
	if wasDetached {
		t.Stop()
		delete(r.detached, name)
	} else {
		// Take over a live membership under the same name: the old
		// connection is dying (the reconnect raced the server noticing)
		// and its stream ends here; Detach/eviction of the old handle
		// later is a no-op.
		delete(r.members, name)
		old.endLocked()
	}
	m := &Member{Name: name, room: r, ch: make(chan Event, memberQueueSize)}
	r.members[name] = m
	complete := since >= r.log.trimmed && since <= r.log.seq
	// Stamped after the old stream ended: whatever it still had queued is
	// older than the view the new member starts from.
	first := r.stampLocked(m, view)
	m.held = viewRef{first.View, first.view}
	if r.replicator != nil {
		r.replicator() // seq-only advance: nothing buffered
	}
	return m, r.log.AppendSince(nil, since), first, complete, nil
}

// Members lists current member names, sorted.
func (r *Room) Members() []string {
	r.mu.Lock()
	defer r.unlock()
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
