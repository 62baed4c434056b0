// Package room implements the shared "rooms" of the interaction server
// (§3, §5.3 of the paper). Multiple clients enter a room around one
// multimedia document; every action one partner takes — a presentation
// choice, a media operation, writing text on an image, a keyword search —
// is immediately propagated to all other partners. The room also enforces
// the freeze/release discipline of the IP module ("freezing of multimedia
// objects by one partner from the rest") and keeps the change buffer the
// paper describes: "a large memory buffer which maintains the changes made
// on the changed objects", from which late joiners catch up.
package room

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/obs"
	"mmconf/internal/wire"
)

// EventKind classifies room events.
type EventKind int

// Event kinds.
const (
	EvJoin EventKind = iota
	EvLeave
	EvChoice
	EvOperation
	EvAnnotate
	EvDeleteAnnotation
	EvFreeze
	EvRelease
	EvPresentation
	EvWordSearch
	EvSpeakerSearch
	EvChat
)

// String names the kind.
func (k EventKind) String() string {
	names := [...]string{"join", "leave", "choice", "operation", "annotate",
		"delete-annotation", "freeze", "release", "presentation",
		"word-search", "speaker-search", "chat",
		"broadcast-start", "broadcast-stop", "shutdown"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one propagated room change. Only the fields relevant to the
// Kind are set.
type Event struct {
	Seq   uint64
	Room  string
	Actor string
	Kind  EventKind

	// EvChoice.
	Variable, Value string
	// EvOperation.
	Component, Op, ActiveWhen, DerivedVar string
	Private                               bool
	// EvAnnotate / EvDeleteAnnotation / EvFreeze / EvRelease.
	ObjectID     uint64
	Annotation   image.Annotation
	AnnotationID int
	// EvPresentation: the receiving member's own updated view.
	Outcome cpnet.Outcome
	Visible map[string]bool
	// EvWordSearch / EvSpeakerSearch: cooperative search results.
	Keyword string
	Hits    []voice.Hit
	// EvChat.
	Text string

	// Resync hints that this member's queue overflowed since its last
	// delivered event: older events were dropped, so the client should
	// replay from History instead of trusting its local stream.
	Resync bool

	// shared memoizes the event's wire encoding across an N-member
	// fan-out (set by fanOutLocked; nil for per-member events, which
	// encode individually).
	shared *sharedEnc
}

// sharedEnc holds the once-computed wire payload of a fanned-out event:
// a broadcast encodes once per event, not once per member.
type sharedEnc struct {
	once sync.Once
	data []byte
}

// EncodeShared returns the event's wire payload, computing it at most
// once across every copy of a fanned-out event. encoded reports whether
// this call ran the encode (false = the shared encoding was reused).
// Callers must not modify the returned bytes.
func (ev *Event) EncodeShared() (data []byte, encoded bool) {
	if ev.shared == nil {
		return wire.MarshalBody(ev), true
	}
	s := ev.shared
	s.once.Do(func() {
		encoded = true
		s.data = wire.MarshalBody(ev)
	})
	return s.data, encoded
}

// memberQueueSize bounds each member's event queue; a member that stops
// draining for this many events is evicted rather than stalling the room.
const memberQueueSize = 256

// eventBaseSize is the assumed fixed overhead of one queued Event
// (struct header, scalar fields, channel slot) for push-budget
// accounting; variable-size payloads are added on top by approxSize.
const eventBaseSize = 160

// approxSize estimates the event's memory footprint for the per-member
// push budget. It is deterministic over the payload fields only —
// delivery-side mutations (Resync, shared) don't change it, so the
// enqueue-side charge and the Consumed-side refund always match.
func (ev *Event) approxSize() int64 {
	n := int64(eventBaseSize)
	n += int64(len(ev.Room) + len(ev.Actor) + len(ev.Variable) + len(ev.Value))
	n += int64(len(ev.Component) + len(ev.Op) + len(ev.ActiveWhen) + len(ev.DerivedVar))
	n += int64(len(ev.Annotation.Text) + len(ev.Keyword) + len(ev.Text))
	for i := range ev.Hits {
		n += 48 + int64(len(ev.Hits[i].Word))
	}
	for k := range ev.Visible {
		n += 24 + int64(len(k))
	}
	return n
}

// Member is one participant's session in a room.
type Member struct {
	Name string
	room *Room
	ch   chan Event
	// drops counts queued events discarded because this member stopped
	// draining; needResync (guarded by room.mu) flags that the next
	// delivered event must carry the Resync hint.
	drops      atomic.Uint64
	needResync bool
	// queuedBytes tracks the estimated memory held by undrained queued
	// events: charged on enqueue, refunded by Consumed (consumer side)
	// or on drop (room side). Atomic because the consumer refunds
	// outside the room lock.
	queuedBytes atomic.Int64
}

// Events returns the member's event stream. The channel closes when the
// member leaves or is evicted.
func (m *Member) Events() <-chan Event { return m.ch }

// Drops reports how many queued events were discarded for this member
// because its queue overflowed. A client seeing Event.Resync (set on
// the first event delivered after a drop) should replay from History.
func (m *Member) Drops() uint64 { return m.drops.Load() }

// Consumed refunds ev's share of the member's push budget after the
// consumer has taken it off the Events channel and no longer holds it
// queued. Consumers that never call Consumed should run with the push
// budget disabled (SetPushBudget(0)); otherwise the budget fills with
// phantom bytes and the member sheds events it could have afforded.
func (m *Member) Consumed(ev Event) { m.queuedBytes.Add(-ev.approxSize()) }

// QueuedBytes reports the estimated memory currently held by this
// member's undrained queued events.
func (m *Member) QueuedBytes() int64 { return m.queuedBytes.Load() }

// DrainRefund empties whatever events remain queued on this member's
// channel and refunds their push-budget charges, returning how many it
// drained. A forwarder that exits before draining its channel (push
// error, eviction) must call this after the channel closes: abandoned
// events would otherwise keep their queuedBytes charged forever, and
// anything reading the member's pressure — the QoS controller does —
// would see phantom load.
func (m *Member) DrainRefund() int {
	n := 0
	for {
		select {
		case ev, ok := <-m.ch:
			if !ok {
				return n
			}
			m.Consumed(ev)
			n++
		default:
			return n
		}
	}
}

// Room is one shared session around a document.
type Room struct {
	Name string

	mu      sync.Mutex
	engine  *core.Engine
	members map[string]*Member
	frozen  map[uint64]string // object id -> holder
	anns    map[uint64]*image.Annotated
	rasters map[uint64]*image.Gray // base rasters for annotation rendering
	buf     changeBuffer
	seq     uint64
	// trimmed is the highest Seq ever discarded from the change buffer;
	// a resume from at-or-after it can be replayed exactly, one from
	// before it has an unrecoverable gap.
	trimmed uint64
	closed  bool

	// grace is how long a detached session may linger before it is
	// expired into a full leave (<= 0: detach degrades to leave).
	// detached holds the expiry timer per detached member; expireHook,
	// when set, observes expirations (called outside r.mu).
	grace      time.Duration
	detached   map[string]*time.Timer
	expireHook func(user string)

	// broadcaster is the presenting member while a broadcast runs ("").
	broadcaster string

	// dropHook, when set, observes every discarded member-queue event
	// (called under r.mu — keep it cheap; the server counts drops into
	// its stats here).
	dropHook func(member string)

	// pushBudget caps the estimated bytes queued per member (0 or
	// negative: disabled, count-bounded only). A slow consumer over
	// budget sheds its oldest queued events — and gets a Resync hint —
	// instead of buffering unboundedly.
	pushBudget int64

	// replicator, when set, observes every buffered event (ev non-nil)
	// and every sequence advance (ev nil for per-member presentation
	// bumps that consume a Seq without entering the change buffer),
	// carrying the room's current Seq high-water and trim marks. Called
	// under r.mu — it must not block or call back into the room; a
	// cluster node hands the event to an async replication queue here.
	replicator func(ev *Event, seq, trimmed uint64)

	// docVer counts shared document mutations; docSnap caches the
	// document's serialized form at docSnapVer so joins stop
	// re-marshaling an unchanged document.
	docVer     uint64
	docSnapVer uint64
	docSnap    []byte

	// Dynamic event triggers (future work of §6, implemented here).
	triggers   []*Trigger
	triggerSeq uint64
	triggerCh  chan Event
	triggerWG  chan struct{} // closed when the dispatch goroutine exits
}

// New creates a room around a document.
func New(name string, doc *document.Document) (*Room, error) {
	if name == "" {
		return nil, fmt.Errorf("room: empty room name")
	}
	engine, err := core.NewEngine(doc)
	if err != nil {
		return nil, err
	}
	r := &Room{
		Name:      name,
		engine:    engine,
		members:   make(map[string]*Member),
		frozen:    make(map[uint64]string),
		anns:      make(map[uint64]*image.Annotated),
		rasters:   make(map[uint64]*image.Gray),
		detached:  make(map[string]*time.Timer),
		triggerCh: make(chan Event, 256),
		triggerWG: make(chan struct{}),
	}
	go r.triggerLoop()
	return r, nil
}

// triggerLoop dispatches events to installed triggers asynchronously, so
// trigger bodies can call room methods without deadlocking.
func (r *Room) triggerLoop() {
	defer close(r.triggerWG)
	for ev := range r.triggerCh {
		r.runTriggers(ev)
	}
}

// Engine exposes the room's presentation engine.
func (r *Room) Engine() *core.Engine { return r.engine }

// OnQueueDrop installs a hook observing every discarded member-queue
// event. The hook runs under the room lock — keep it cheap.
func (r *Room) OnQueueDrop(fn func(member string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropHook = fn
}

// SetPushBudget caps the estimated bytes of undrained events queued per
// member (<= 0: disabled). Only enable it when the consumer refunds
// delivered events via Member.Consumed — the server's forwarder does.
func (r *Room) SetPushBudget(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pushBudget = n
}

// SetGrace sets how long a detached session survives before expiring
// into a full leave. With d <= 0, Detach degrades to an immediate leave.
func (r *Room) SetGrace(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grace = d
}

// OnSessionExpire installs a hook observing detached sessions that ran
// out their grace period. The hook runs outside the room lock.
func (r *Room) OnSessionExpire(fn func(user string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireHook = fn
}

// bumpDocLocked invalidates the cached document snapshot; call after
// any shared document mutation. Callers hold r.mu.
func (r *Room) bumpDocLocked() { r.docVer++ }

// DocSnapshot returns the shared document's serialized form, cached
// until the next document mutation (so an N-viewer join storm marshals
// once, not N times). hit reports whether the cache served the bytes.
// Callers must not modify the returned slice.
func (r *Room) DocSnapshot() (data []byte, hit bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.docSnap != nil && r.docSnapVer == r.docVer {
		return r.docSnap, true, nil
	}
	data, err = r.engine.Document().MarshalBinary()
	if err != nil {
		return nil, false, err
	}
	r.docSnap, r.docSnapVer = data, r.docVer
	return data, false, nil
}

// Join adds a member, replays the change buffer to them as a catch-up
// snapshot, and announces the join to everyone. A cancelled ctx aborts
// before any state changes — the request's client is already gone, so
// admitting it would strand a membership nobody drains.
func (r *Room) Join(ctx context.Context, name string) (*Member, []Event, document.View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, document.View{}, fmt.Errorf("room %s: join %s: %w", r.Name, name, err)
	}
	if r.closed {
		return nil, nil, document.View{}, fmt.Errorf("room %s: closed", r.Name)
	}
	if _, dup := r.members[name]; dup {
		return nil, nil, document.View{}, fmt.Errorf("room %s: member %q already present", r.Name, name)
	}
	// A fresh join supersedes any detached session under the same name:
	// the old session leaves for real (its engine state and freezes are
	// retracted) before the new one enters, so a client that gave up on
	// resuming is never blocked by its own ghost.
	if t, ok := r.detached[name]; ok {
		t.Stop()
		delete(r.detached, name)
		if err := r.removeLocked(name); err != nil {
			return nil, nil, document.View{}, err
		}
	}
	view, err := r.engine.Join(name)
	if err != nil {
		return nil, nil, document.View{}, err
	}
	m := &Member{Name: name, room: r, ch: make(chan Event, memberQueueSize)}
	r.members[name] = m
	history := r.buf.since(0)
	endPush := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvJoin}, true)
	endPush()
	return m, history, view, nil
}

// Leave removes a member, retracts their choices, and reconfigures the
// remaining members' presentations if needed. A detached session may
// also Leave, ending its grace period early.
func (r *Room) Leave(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	close(m.ch)
	return r.removeLocked(name)
}

// removeLocked finishes a departure for a name already out of the member
// map (left, evicted, or expired from detachment): broadcaster handoff,
// engine retraction, freeze release, and the EvLeave announcement.
// Callers hold r.mu.
func (r *Room) removeLocked(name string) error {
	if r.broadcaster == name {
		r.broadcaster = ""
		r.broadcastLocked(Event{Room: r.Name, Actor: name, Kind: EvBroadcastStop}, false)
	}
	changed, err := r.engine.Leave(name)
	if err != nil {
		return err
	}
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
// channel closes (its forwarder unblocks) but the engine membership,
// choices, and freezes stay in place for a grace period so the same user
// can Resume without the room observing a leave. The member handle
// identifies the session: if the name's live membership is a different
// handle (the user already resumed on a new connection and this is a
// stale eviction of the old one), Detach is a no-op. It reports whether
// a detached session is now pending; false means nothing was detached or
// the grace period is disabled and the membership was fully removed.
func (r *Room) Detach(m *Member) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.Name
	cur, ok := r.members[name]
	if !ok || cur != m {
		return false
	}
	delete(r.members, name)
	close(m.ch)
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
		r.mu.Unlock()
		return
	}
	if _, ok := r.detached[name]; !ok {
		r.mu.Unlock()
		return // resumed, superseded, or left while the timer fired
	}
	delete(r.detached, name)
	r.removeLocked(name)
	hook := r.expireHook
	r.mu.Unlock()
	if hook != nil {
		hook(name)
	}
}

// Resume revives a detached session: the member re-enters under its
// retained engine state (choices, freezes, broadcast role untouched) and
// receives exactly the buffered events with Seq greater than since.
// complete reports whether that replay covers everything the member
// missed — false when the change buffer was trimmed past since (or since
// is from another room incarnation), in which case the client must treat
// its local state as stale and do a full catch-up.
func (r *Room) Resume(ctx context.Context, name string, since uint64) (*Member, []Event, document.View, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, document.View{}, false, fmt.Errorf("room %s: resume %s: %w", r.Name, name, err)
	}
	if r.closed {
		return nil, nil, document.View{}, false, fmt.Errorf("room %s: closed", r.Name)
	}
	t, wasDetached := r.detached[name]
	old, wasLive := r.members[name]
	if !wasDetached && !wasLive {
		return nil, nil, document.View{}, false, fmt.Errorf("room %s: resume %s: %w", r.Name, name, ErrNoSession)
	}
	view, err := r.engine.ViewFor(name)
	if err != nil {
		return nil, nil, document.View{}, false, err
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
		close(old.ch)
	}
	m := &Member{Name: name, room: r, ch: make(chan Event, memberQueueSize)}
	r.members[name] = m
	complete := since >= r.trimmed && since <= r.seq
	return m, r.buf.since(since), view, complete, nil
}

// Detached lists the names of currently detached sessions, sorted.
func (r *Room) Detached() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.detached))
	for n := range r.detached {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Members lists current member names, sorted.
func (r *Room) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Gauges is a point-in-time reading of a room's live load: how many
// members (and parked sessions) it carries, how deep their undrained
// event queues are, and how much change buffer it retains.
type Gauges struct {
	Members        int
	Detached       int
	QueuedEvents   int   // sum of undrained member-queue depths
	QueuedBytes    int64 // estimated bytes across undrained member queues
	MaxQueueDepth  int   // deepest single member queue
	BufferedEvents int   // change-buffer length (late-join catch-up)
}

// Gauges samples the room's live load for the metrics surface.
func (r *Room) Gauges() Gauges {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := Gauges{
		Members:        len(r.members),
		Detached:       len(r.detached),
		BufferedEvents: r.buf.len(),
	}
	for _, m := range r.members {
		d := len(m.ch)
		g.QueuedEvents += d
		g.QueuedBytes += m.queuedBytes.Load()
		if d > g.MaxQueueDepth {
			g.MaxQueueDepth = d
		}
	}
	return g
}

// Close evicts everyone and shuts the room down.
func (r *Room) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	for name, m := range r.members {
		close(m.ch)
		delete(r.members, name)
	}
	for name, t := range r.detached {
		t.Stop()
		delete(r.detached, name)
	}
	r.closed = true
	r.mu.Unlock()
	close(r.triggerCh)
	<-r.triggerWG
}

// broadcastLocked stamps, buffers and fans an event out, then (when
// reconfigure is set) pushes each member their updated presentation.
// Callers hold r.mu.
func (r *Room) broadcastLocked(ev Event, reconfigure bool) {
	r.seq++
	ev.Seq = r.seq
	ev.Room = r.Name
	if displaced := r.buf.push(ev); displaced != 0 {
		r.trimmed = displaced
	}
	if !r.closed {
		select {
		case r.triggerCh <- ev: // async trigger evaluation
		default: // trigger backlog full: shed rather than stall the room
		}
	}
	r.fanOutLocked(ev)
	if r.replicator != nil {
		// Tap after the reconfigure loop below so the replicated Seq
		// high-water mark includes the per-member presentation bumps.
		// The tap takes the event's address, which puts it on the heap:
		// a copy made here, so a room nobody taps does not pay for one.
		tapped := ev
		defer func() { r.replicator(&tapped, r.seq, r.trimmed) }()
	}
	if reconfigure {
		views, err := r.engine.Views()
		if err != nil {
			return
		}
		for name, m := range r.members {
			v, ok := views[name]
			if !ok {
				continue
			}
			// During a broadcast everyone mirrors the presenter's view.
			if r.broadcaster != "" {
				if pv, ok := views[r.broadcaster]; ok {
					v = pv
				}
			}
			r.seq++
			pe := Event{
				Seq: r.seq, Room: r.Name, Actor: name, Kind: EvPresentation,
				Outcome: v.Outcome, Visible: v.Visible,
			}
			r.deliverLocked(m, pe)
		}
	}
}

// fanOutLocked delivers one event to every member. With more than one
// member the copies share a memoized wire encoding (EncodeShared), so
// the push path encodes the event once for the whole room.
func (r *Room) fanOutLocked(ev Event) {
	if len(r.members) > 1 {
		ev.shared = &sharedEnc{}
	}
	for _, m := range r.members {
		r.deliverLocked(m, ev)
	}
}

// deliverLocked enqueues an event; when a member's queue is full the
// oldest queued event is discarded to make room, so a stalled client
// never blocks the room and, once it resumes draining, can resynchronize
// from History (mirroring the paper's buffer, which discards changes "as
// soon as they are not needed by the clients"). Drops are counted per
// member and reported to the drop hook, and the first event delivered
// after a drop carries the Resync hint so the client knows its stream
// has a gap.
// A byte-bounded push budget (SetPushBudget) applies the same policy to
// memory: when a member's undrained queue is over budget, its oldest
// queued events are shed first, so one slow consumer in a room pushing
// large events cannot grow the server heap without bound.
func (r *Room) deliverLocked(m *Member, ev Event) {
	sz := ev.approxSize()
	// Shed oldest while over the byte budget (but never the event being
	// delivered itself — an oversized single event still goes through,
	// alone in the queue).
	for r.pushBudget > 0 && m.queuedBytes.Load()+sz > r.pushBudget && len(m.ch) > 0 {
		r.dropOldestLocked(m)
	}
	for {
		if m.needResync {
			// This copy is member-specific now: detach it from the
			// shared encoding so the hint is not broadcast to everyone.
			ev.Resync = true
			ev.shared = nil
		}
		select {
		case m.ch <- ev:
			m.queuedBytes.Add(sz)
			m.needResync = false
			return
		default:
			r.dropOldestLocked(m)
		}
	}
}

// dropOldestLocked discards the member's oldest queued event (if any),
// refunding its budget charge and flagging the resync hint. Callers
// hold r.mu.
func (r *Room) dropOldestLocked(m *Member) {
	select {
	case old := <-m.ch:
		m.queuedBytes.Add(-old.approxSize())
		m.drops.Add(1)
		m.needResync = true
		if r.dropHook != nil {
			r.dropHook(m.Name)
		}
	default:
	}
}

// SetMemberEnvironment pins a measured per-member environment variable
// (the QoS loop's bandwidth level) and, when the pin changes the
// member's effective evidence, pushes them their re-solved presentation
// as a per-member EvPresentation event — nobody else's view or queue is
// touched. It reports whether the evidence changed.
func (r *Room) SetMemberEnvironment(name, variable, value string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok {
		return false, fmt.Errorf("room %s: no member %q", r.Name, name)
	}
	changed, err := r.engine.SetViewerEnvironment(name, variable, value)
	if err != nil || !changed {
		return changed, err
	}
	viewer := name
	if r.broadcaster != "" {
		viewer = r.broadcaster // during a broadcast everyone mirrors the presenter
	}
	v, err := r.engine.ViewFor(viewer)
	if err != nil {
		return true, err
	}
	r.seq++
	r.deliverLocked(m, Event{
		Seq: r.seq, Room: r.Name, Actor: name, Kind: EvPresentation,
		Outcome: v.Outcome, Visible: v.Visible,
	})
	if r.replicator != nil {
		r.replicator(nil, r.seq, r.trimmed) // seq-only advance: nothing buffered
	}
	return true, nil
}

// Choice records a presentation choice and propagates it. A cancelled
// ctx aborts before the engine mutates, so no propagation work runs for
// a request whose client stopped waiting.
func (r *Room) Choice(ctx context.Context, actor, variable, value string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("room %s: choice by %s: %w", r.Name, actor, err)
	}
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if err := r.checkFloorLocked(actor); err != nil {
		return err
	}
	if _, err := r.engine.Choice(actor, variable, value); err != nil {
		return err
	}
	endPush := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{Actor: actor, Kind: EvChoice, Variable: variable, Value: value}, true)
	endPush()
	return nil
}

// Operation applies a media operation (§4.2) and propagates it. Shared
// operations change everyone's network; private ones only the actor's
// overlay — but the event is still announced so partners see the action.
func (r *Room) Operation(ctx context.Context, actor, component, op, activeWhen string, private bool) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("room %s: operation by %s: %w", r.Name, actor, err)
	}
	if _, ok := r.members[actor]; !ok {
		return "", fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if err := r.checkFloorLocked(actor); err != nil {
		return "", err
	}
	if holder := r.frozenHolderForComponentLocked(component); holder != "" && holder != actor {
		return "", fmt.Errorf("room %s: component %q is frozen by %s", r.Name, component, holder)
	}
	name, err := r.engine.Operation(actor, component, op, activeWhen, private)
	if err != nil {
		return "", err
	}
	// Shared operations extend the document's preference network;
	// invalidate the cached snapshot (private overlays are cheap to
	// over-invalidate, so bump unconditionally for safety).
	r.bumpDocLocked()
	endPush := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvOperation,
		Component: component, Op: op, ActiveWhen: activeWhen,
		DerivedVar: name, Private: private,
	}, true)
	endPush()
	return name, nil
}

// frozenHolderForComponentLocked returns who froze any object the
// component's presentations reference, or "".
func (r *Room) frozenHolderForComponentLocked(component string) string {
	c, err := r.engine.Document().Component(component)
	if err != nil {
		return ""
	}
	for _, p := range c.Presentations {
		if p.ObjectID != 0 {
			if holder, ok := r.frozen[p.ObjectID]; ok {
				return holder
			}
		}
	}
	return ""
}

// RegisterRaster provides the base raster of an image object so that
// annotation rendering (Rendered) works server-side.
func (r *Room) RegisterRaster(objectID uint64, g *image.Gray) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rasters[objectID] = g
}

// Annotate writes a text or line element on an image object and
// propagates it — "when one user writes some text on an image, the others
// can see the text".
func (r *Room) Annotate(actor string, objectID uint64, kind image.AnnotationKind,
	x1, y1, x2, y2 int, text string, intensity float64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return 0, fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok && holder != actor {
		return 0, fmt.Errorf("room %s: object %d is frozen by %s", r.Name, objectID, holder)
	}
	ann := r.annotatedLocked(objectID)
	var id int
	var err error
	switch kind {
	case image.TextElement:
		id, err = ann.AddText(x1, y1, text, intensity)
	case image.LineElement:
		id = ann.AddLine(x1, y1, x2, y2, intensity)
	default:
		return 0, fmt.Errorf("room %s: unknown annotation kind %d", r.Name, kind)
	}
	if err != nil {
		return 0, err
	}
	stored := ann.Annotations[len(ann.Annotations)-1]
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvAnnotate, ObjectID: objectID,
		Annotation: stored, AnnotationID: id,
	}, false)
	return id, nil
}

// annotatedLocked returns (creating if needed) the annotation overlay of
// an object.
func (r *Room) annotatedLocked(objectID uint64) *image.Annotated {
	ann, ok := r.anns[objectID]
	if !ok {
		base := r.rasters[objectID]
		if base == nil {
			base, _ = image.New(1, 1) // annotations can exist before the raster is registered
		}
		ann = image.NewAnnotated(base)
		r.anns[objectID] = ann
	}
	return ann
}

// DeleteAnnotation removes an overlay element and propagates the removal.
func (r *Room) DeleteAnnotation(actor string, objectID uint64, annotationID int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok && holder != actor {
		return fmt.Errorf("room %s: object %d is frozen by %s", r.Name, objectID, holder)
	}
	ann, ok := r.anns[objectID]
	if !ok {
		return fmt.Errorf("room %s: object %d has no annotations", r.Name, objectID)
	}
	if err := ann.Delete(annotationID); err != nil {
		return err
	}
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvDeleteAnnotation,
		ObjectID: objectID, AnnotationID: annotationID,
	}, false)
	return nil
}

// Annotations returns a copy of an object's current overlay.
func (r *Room) Annotations(objectID uint64) []image.Annotation {
	r.mu.Lock()
	defer r.mu.Unlock()
	ann, ok := r.anns[objectID]
	if !ok {
		return nil
	}
	return append([]image.Annotation(nil), ann.Annotations...)
}

// Rendered returns the object's raster with annotations burned in, if its
// base raster was registered.
func (r *Room) Rendered(objectID uint64) (*image.Gray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rasters[objectID] == nil {
		return nil, fmt.Errorf("room %s: no raster registered for object %d", r.Name, objectID)
	}
	return r.annotatedLocked(objectID).Render(), nil
}

// Freeze locks an object against changes by other partners.
func (r *Room) Freeze(actor string, objectID uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok {
		return fmt.Errorf("room %s: object %d already frozen by %s", r.Name, objectID, holder)
	}
	r.frozen[objectID] = actor
	r.broadcastLocked(Event{Actor: actor, Kind: EvFreeze, ObjectID: objectID}, false)
	return nil
}

// Release lifts a freeze; only the holder may release.
func (r *Room) Release(actor string, objectID uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	holder, ok := r.frozen[objectID]
	if !ok {
		return fmt.Errorf("room %s: object %d is not frozen", r.Name, objectID)
	}
	if holder != actor {
		return fmt.Errorf("room %s: object %d is frozen by %s, not %s", r.Name, objectID, holder, actor)
	}
	delete(r.frozen, objectID)
	r.broadcastLocked(Event{Actor: actor, Kind: EvRelease, ObjectID: objectID}, false)
	return nil
}

// FrozenBy reports who holds the freeze on an object ("" if unfrozen).
func (r *Room) FrozenBy(objectID uint64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen[objectID]
}

// ShareSearch propagates the results of a voice search (word or speaker
// spotting) to all partners — the cooperative integration of §3.2: "if
// one does keyword searches, the results will be visible and usable to
// other partners in the chat room".
func (r *Room) ShareSearch(actor string, kind EventKind, keyword string, hits []voice.Hit) error {
	if kind != EvWordSearch && kind != EvSpeakerSearch {
		return fmt.Errorf("room %s: %v is not a search kind", r.Name, kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	r.broadcastLocked(Event{Actor: actor, Kind: kind, Keyword: keyword, Hits: hits}, false)
	return nil
}

// Chat propagates a free-text message.
func (r *Room) Chat(actor, text string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	r.broadcastLocked(Event{Actor: actor, Kind: EvChat, Text: text}, false)
	return nil
}

// SetReplicator installs the event-log tap a cluster node replicates
// from: fn observes every buffered event (ev non-nil) and every Seq
// advance (ev nil) together with the room's current Seq high-water and
// trim marks. fn runs under the room lock — it must be cheap, must not
// block, and must not call back into the room.
func (r *Room) SetReplicator(fn func(ev *Event, seq, trimmed uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicator = fn
}

// Restore seeds a freshly built room with a replicated event log: the
// change buffer, the Seq high-water mark, and the trim watermark a
// failover standby accumulated from the old owner. Resume(since) on the
// restored room then replays exactly the events the old owner would
// have — the handover substrate of the cluster tier. It refuses on a
// room that has already issued events or admitted members.
func (r *Room) Restore(events []Event, seq, trimmed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq != 0 || r.buf.len() != 0 || len(r.members) != 0 {
		return fmt.Errorf("room %s: restore into a live room", r.Name)
	}
	for i, ev := range events {
		if ev.Seq <= trimmed || ev.Seq > seq || (i > 0 && ev.Seq <= events[i-1].Seq) {
			return fmt.Errorf("room %s: restore: event log not ascending within (%d, %d]", r.Name, trimmed, seq)
		}
	}
	for _, ev := range events {
		if displaced := r.buf.push(ev); displaced != 0 {
			trimmed = displaced
		}
	}
	r.seq = seq
	r.trimmed = trimmed
	return nil
}

// Seq returns the latest issued event sequence number.
func (r *Room) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Trimmed returns the highest Seq ever discarded from the change
// buffer — the replay floor: a resume from at-or-after it is exact.
func (r *Room) Trimmed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trimmed
}

// History returns buffered events with Seq greater than since.
func (r *Room) History(since uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.since(since)
}
