// Package room implements the shared "rooms" of the interaction server
// (§3, §5.3 of the paper). Multiple clients enter a room around one
// multimedia document; every action one partner takes — a presentation
// choice, a media operation, writing text on an image, a keyword search —
// is immediately propagated to all other partners. The room also enforces
// the freeze/release discipline of the IP module ("freezing of multimedia
// objects by one partner from the rest") and keeps, as its Log, the change
// buffer the paper describes: "a large memory buffer which maintains the
// changes made on the changed objects", from which late joiners catch up.
package room

import (
	"context"
	"fmt"
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
	// EvPresentation: the change against the view the receiving member
	// holds. Base is the id of the view the change is made against (0: the
	// empty view, so the change is the whole view) and View the id of the
	// view it leaves the member at. A member's first presentation is whole
	// and crosses in the join or resume response, not its queue; every
	// later one is made against the view it left. The change itself has one
	// of two forms.
	// Decoded, it is Changes, the run that crossed, and the maps are nil.
	// Made in the room and not yet encoded, Changes and the maps are nil
	// and the event points at two solved views, the engine's own and
	// read-only: the run is what AppendBody finds different between the
	// view Base names and the new one, and only the room can attach them.
	// Outside the room only a whole view (Base 0) can be made, as the new
	// view's Outcome and Visible maps: the benchmark's probe makes one, and
	// client.Session.ApplyEvent takes the maps of a Base 0 event for that
	// reason and no other.
	Base, View uint64
	Changes    []ViewChange
	Outcome    cpnet.Outcome
	Visible    map[string]bool
	// EvWordSearch / EvSpeakerSearch: cooperative search results.
	Keyword string
	Hits    []voice.Hit
	// EvChat.
	Text string

	// Resync hints that this member's queue overflowed since its last
	// delivered event: older events were dropped, so the client should
	// replay from History instead of trusting its local stream.
	Resync bool
	// changeBytes is what approxSize charges for a presentation's entries
	// that differ, counted once when it is made (it shares Resync's word:
	// an Event sits in every queue slot of every member).
	changeBytes int32

	// shared memoizes the event's wire encoding across the members it is
	// fanned out to: every member for a broadcast event, the members of
	// one evidence class that hold the same view for a presentation (nil
	// for an event only one member gets, which encodes individually).
	shared *sharedEnc

	// held and view are the solved views Base and View name, for a
	// presentation made in the room (held is nil when Base is 0).
	held, view *document.Solved
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
// enqueue-side charge and the Consumed-side refund always match. A
// presentation is charged its changed entries (changeBytes, set with the
// maps it is counted from): the maps themselves are the engine's, held
// once however many events point at them.
func (ev *Event) approxSize() int64 {
	n := int64(eventBaseSize)
	n += int64(len(ev.Room) + len(ev.Actor) + len(ev.Variable) + len(ev.Value))
	n += int64(len(ev.Component) + len(ev.Op) + len(ev.ActiveWhen) + len(ev.DerivedVar))
	n += int64(len(ev.Annotation.Text) + len(ev.Keyword) + len(ev.Text))
	for i := range ev.Hits {
		n += 48 + int64(len(ev.Hits[i].Word))
	}
	return n + int64(ev.changeBytes)
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
	// held (guarded by room.mu) is the view this member holds once it has
	// applied everything queued for it — what its next presentation is
	// made against. A new member (a join, a resume and a live takeover
	// each make one) holds the first presentation its response carried.
	// Zero after a presentation was shed from its queue, so the next one
	// is whole.
	held viewRef
	// notify (guarded by room.mu), when set, is told that Events has
	// something new for its consumer: an event was enqueued, or the
	// stream closed. owed (guarded by room.mu) says the operation holding
	// the room lock did one of those and has m in Room.owed, so the
	// unlock that ends it tells notify once.
	notify func()
	owed   bool
}

// Events returns the member's event stream. The channel closes when the
// member leaves or is evicted.
func (m *Member) Events() <-chan Event { return m.ch }

// SetNotify installs the hook a consumer that polls Events (the server's
// push path: a connection's writer drains its members' queues itself)
// is woken by. The room calls it once per room operation that queued
// for this member or closed its stream, however many events that
// operation queued (a choice queues its EvChoice and the presentation
// it causes, and both are in the queue when fn runs), just before the
// operation releases the room lock — so fn must not block or call back
// into the room. What was enqueued before the hook was set is not
// reported: poll once after setting it.
func (m *Member) SetNotify(fn func()) {
	m.room.mu.Lock()
	defer m.room.unlock()
	m.notify = fn
}

// endLocked closes the member's stream; its consumer is told when the
// room lock is released. Callers hold r.mu and have taken m out of
// r.members.
func (m *Member) endLocked() {
	close(m.ch)
	m.room.oweLocked(m)
}

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
// drained. A consumer that gives up before draining its channel (push
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
	log     Log
	closed  bool
	// viewSeq is the last view id issued: one per distinct solved view
	// per reconfiguration, so an id names a view, not the event or the
	// member that carried it.
	viewSeq uint64

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

	// replicator, when set, is told that the log advanced: an event was
	// buffered, or a per-member presentation consumed a Seq without
	// entering the buffer. It carries nothing — the replicating
	// node reads what it lacks with LogSince. Called under r.mu — it must
	// not block or call back into the room.
	replicator func()

	// docVer counts shared document mutations; docSnap caches the
	// document's serialized form at docSnapVer so joins stop
	// re-marshaling an unchanged document.
	docVer     uint64
	docSnapVer uint64
	docSnap    []byte

	// Dynamic event triggers (future work of §6, implemented here).
	// triggerCh and triggerDone are nil until the first AddTrigger starts
	// the dispatch goroutine: a room with no trigger owns no goroutine.
	triggers    []*Trigger
	triggerSeq  uint64
	triggerCh   chan Event
	triggerDone chan struct{} // closed when the dispatch goroutine exits

	// owed lists, once each, the members the operation holding r.mu has
	// queued for or ended; unlock tells them and empties it, keeping its
	// capacity, so owing allocates nothing per operation.
	owed []*Member
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
		Name:     name,
		engine:   engine,
		members:  make(map[string]*Member),
		frozen:   make(map[uint64]string),
		anns:     make(map[uint64]*image.Annotated),
		detached: make(map[string]*time.Timer),
	}
	return r, nil
}

// Engine exposes the room's presentation engine.
func (r *Room) Engine() *core.Engine { return r.engine }

// bumpDocLocked invalidates the cached document snapshot; call after
// any shared document mutation. Callers hold r.mu.
func (r *Room) bumpDocLocked() { r.docVer++ }

// DocSnapshot returns the shared document's serialized form, cached
// until the next document mutation (so an N-viewer join storm marshals
// once, not N times). hit reports whether the cache served the bytes.
// Callers must not modify the returned slice.
func (r *Room) DocSnapshot() (data []byte, hit bool, err error) {
	r.mu.Lock()
	defer r.unlock()
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

// Gauges is a point-in-time reading of a room's live load: how many
// members (and parked sessions) it carries, how deep their undrained
// event queues are, and how many events its log retains.
type Gauges struct {
	Members        int
	Detached       int
	QueuedEvents   int   // sum of undrained member-queue depths
	QueuedBytes    int64 // estimated bytes across undrained member queues
	MaxQueueDepth  int   // deepest single member queue
	BufferedEvents int   // the log's buffered events (late-join catch-up)
}

// Gauges samples the room's live load for the metrics surface.
func (r *Room) Gauges() Gauges {
	r.mu.Lock()
	defer r.unlock()
	g := Gauges{
		Members:        len(r.members),
		Detached:       len(r.detached),
		BufferedEvents: r.log.n,
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
		r.unlock()
		return
	}
	for name, m := range r.members {
		delete(r.members, name)
		m.endLocked()
	}
	for name, t := range r.detached {
		t.Stop()
		delete(r.detached, name)
	}
	r.closed = true
	ch, done := r.triggerCh, r.triggerDone
	r.unlock()
	if ch != nil {
		close(ch)
		<-done
	}
}

// SetMemberEnvironment pins a measured per-member environment variable
// (the QoS loop's bandwidth level) and, when the pin changes the
// member's effective evidence, pushes them their re-solved presentation
// as an EvPresentation of their own — nobody else's view or queue is
// touched, unless the member is presenting a broadcast, when everyone
// mirrors the view the pin changed. It reports whether the evidence
// changed.
func (r *Room) SetMemberEnvironment(name, variable, value string) (bool, error) {
	r.mu.Lock()
	defer r.unlock()
	m, ok := r.members[name]
	if !ok {
		return false, fmt.Errorf("room %s: no member %q", r.Name, name)
	}
	changed, err := r.engine.SetViewerEnvironment(name, variable, value)
	if err != nil || !changed {
		return changed, err
	}
	if name == r.broadcaster {
		r.reconfigureLocked(name) // everyone mirrors the presenter, whose view this changed
	} else {
		err = r.presentLocked(m)
	}
	if r.replicator != nil {
		r.replicator() // seq-only advance: nothing buffered
	}
	return true, err
}

// presentLocked pushes one member the presentation that takes it from the
// view it holds to its current one. Callers hold r.mu and tell the
// replicator.
func (r *Room) presentLocked(m *Member) error {
	v, err := r.engine.Solved(r.viewerLocked(m.Name))
	if err != nil {
		return err
	}
	r.deliverLocked(m, r.stampLocked(m, v))
	return nil
}

// stampLocked makes the presentation that takes m from the view it holds
// to v, under a Seq and a view id of its own. Callers hold r.mu. A join
// or resume makes a new member's first this way and returns it for the
// response to carry, not queued; held is set to it by hand.
func (r *Room) stampLocked(m *Member, v *document.Solved) Event {
	r.viewSeq++
	pe := Event{Seq: r.log.next(), Room: r.Name, Actor: m.Name, Kind: EvPresentation}
	pe.setView(m.held, viewRef{r.viewSeq, v})
	return pe
}

// Choice records a presentation choice and propagates it. A cancelled
// ctx aborts before the engine mutates, so no propagation work runs for
// a request whose client stopped waiting.
func (r *Room) Choice(ctx context.Context, actor, variable, value string) error {
	r.mu.Lock()
	defer r.unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("room %s: choice by %s: %w", r.Name, actor, err)
	}
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if err := r.checkFloorLocked(actor); err != nil {
		return err
	}
	if err := r.engine.SetChoice(actor, variable, value); err != nil {
		return err
	}
	push := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{Actor: actor, Kind: EvChoice, Variable: variable, Value: value}, true)
	push.End()
	return nil
}

// Operation applies a media operation (§4.2) and propagates it. Shared
// operations change everyone's network; private ones only the actor's
// overlay — but the event is still announced so partners see the action.
func (r *Room) Operation(ctx context.Context, actor, component, op, activeWhen string, private bool) (string, error) {
	r.mu.Lock()
	defer r.unlock()
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
	push := obs.StartSpan(ctx, "push")
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvOperation,
		Component: component, Op: op, ActiveWhen: activeWhen,
		DerivedVar: name, Private: private,
	}, true)
	push.End()
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

// ShareSearch propagates the results of a voice search (word or speaker
// spotting) to all partners — the cooperative integration of §3.2: "if
// one does keyword searches, the results will be visible and usable to
// other partners in the chat room".
func (r *Room) ShareSearch(actor string, kind EventKind, keyword string, hits []voice.Hit) error {
	if kind != EvWordSearch && kind != EvSpeakerSearch {
		return fmt.Errorf("room %s: %v is not a search kind", r.Name, kind)
	}
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	r.broadcastLocked(Event{Actor: actor, Kind: kind, Keyword: keyword, Hits: hits}, false)
	return nil
}

// Chat propagates a free-text message.
func (r *Room) Chat(actor, text string) error {
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	r.broadcastLocked(Event{Actor: actor, Kind: EvChat, Text: text}, false)
	return nil
}
