package room

// This file is delivery: stamping an event into the log and fanning it
// out to every member's bounded queue, shedding the oldest when a slow
// consumer overruns its budget.

// OnQueueDrop installs a hook observing every discarded member-queue
// event. The hook runs under the room lock — keep it cheap.
func (r *Room) OnQueueDrop(fn func(member string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropHook = fn
}

// SetPushBudget caps the estimated bytes of undrained events queued per
// member (<= 0: disabled). Only enable it when the consumer refunds
// delivered events via Member.Consumed — the server's push path does.
func (r *Room) SetPushBudget(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pushBudget = n
}

// broadcastLocked stamps, buffers and fans an event out, then (when
// reconfigure is set) pushes the members their updated presentations.
// Callers hold r.mu.
func (r *Room) broadcastLocked(ev Event, reconfigure bool) {
	ev.Room = r.Name
	r.log.append(&ev)
	if len(r.triggers) > 0 && !r.closed {
		select {
		case r.triggerCh <- ev: // async trigger evaluation
		default: // trigger backlog full: shed rather than stall the room
		}
	}
	r.fanOutLocked(ev, !reconfigure)
	if r.replicator != nil {
		// Whoever the tap wakes reads the log under r.mu, so it sees the
		// presentation bumps below whenever in this section it is told.
		r.replicator()
	}
	if reconfigure {
		r.reconfigureLocked(ev.Actor)
	}
}

// reconfigureLocked pushes every member the presentation that takes it
// from the view it holds to the one it is due. Members due the same view
// (one evidence class: the engine hands them one Solved view, and during
// a broadcast everyone is due the presenter's) and holding the same view
// get one event — one Seq, one shared encoding — so the push path encodes
// once per class, and what differs is found at encode time, outside the
// lock. Each distinct new view gets one id, whichever views its members
// come from. actor is whose event caused the re-solve: a shared
// presentation cannot name its receiver. Callers hold r.mu.
func (r *Room) reconfigureLocked(actor string) {
	var made [4]Event // the presentations made so far; more than four spill to the heap
	classes := made[:0]
	for name, m := range r.members {
		v, err := r.engine.Solved(r.viewerLocked(name))
		if err != nil {
			continue
		}
		var pe *Event
		to := viewRef{0, v}
		for i := range classes {
			if classes[i].view != v {
				continue
			}
			to.id = classes[i].View
			if classes[i].Base == m.held.id {
				pe = &classes[i]
				break
			}
		}
		if pe == nil {
			if to.id == 0 {
				r.viewSeq++
				to.id = r.viewSeq
			}
			classes = append(classes, Event{Seq: r.log.next(), Room: r.Name, Actor: actor, Kind: EvPresentation})
			pe = &classes[len(classes)-1]
			pe.setView(m.held, to)
			if len(r.members) > 1 {
				pe.shared = &sharedEnc{}
			}
		}
		r.deliverLocked(m, *pe)
	}
}

// fanOutLocked delivers one event to every member. With more than one
// member the copies share a memoized wire encoding (EncodeShared), so
// the push path encodes the event once for the whole room. A member that
// shed a presentation to take the event holds no view the room can name;
// makeUp says no reconfiguration follows to give it one, so it is
// presented here, whole, and a room that then goes quiet still leaves it
// at its current view.
func (r *Room) fanOutLocked(ev Event, makeUp bool) {
	if len(r.members) > 1 {
		ev.shared = &sharedEnc{}
	}
	for _, m := range r.members {
		if r.deliverLocked(m, ev) && makeUp {
			_ = r.presentLocked(m) // no view to give: the next presentation is whole
		}
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
// A presentation is a change against the one before it, so shedding one
// breaks the chain: the member then holds nothing the room can name
// (dropOldestLocked zeroes m.held) and the presentations still queued
// behind the shed one are refused by its client. The next presentation it
// is delivered is therefore whole and its own, like the Resync copy.
// deliverLocked reports whether that presentation is still owed: one was
// shed and ev is not one.
func (r *Room) deliverLocked(m *Member, ev Event) (owed bool) {
	sz := ev.approxSize()
	shedView := false // a presentation was shed to make room for ev
	// Shed oldest while over the byte budget (but never the event being
	// delivered itself — an oversized single event still goes through,
	// alone in the queue).
	for r.pushBudget > 0 && m.queuedBytes.Load()+sz > r.pushBudget && len(m.ch) > 0 {
		shedView = r.dropOldestLocked(m) || shedView
	}
	for {
		if ev.Kind == EvPresentation && ev.Base != m.held.id {
			// Made against a view this member no longer holds.
			ev.setView(m.held, viewRef{ev.View, ev.view})
			ev.shared = nil
			sz = ev.approxSize()
		}
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
			if m.notify != nil {
				m.notify()
			}
			if ev.Kind == EvPresentation {
				m.held = viewRef{ev.View, ev.view}
				return false
			}
			return shedView
		default:
			shedView = r.dropOldestLocked(m) || shedView
		}
	}
}

// dropOldestLocked discards the member's oldest queued event (if any),
// refunding its budget charge and flagging the resync hint; it reports
// whether that event was a presentation, which leaves the member holding
// no view the room can name. Callers hold r.mu.
func (r *Room) dropOldestLocked(m *Member) (shedView bool) {
	select {
	case old := <-m.ch:
		m.queuedBytes.Add(-old.approxSize())
		m.drops.Add(1)
		m.needResync = true
		if old.Kind == EvPresentation {
			m.held, shedView = viewRef{}, true
		}
		if r.dropHook != nil {
			r.dropHook(m.Name)
		}
	default:
	}
	return shedView
}
