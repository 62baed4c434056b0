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
// delivered events via Member.Consumed — the server's forwarder does.
func (r *Room) SetPushBudget(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pushBudget = n
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
		// Whoever the tap wakes reads the log under r.mu, so it sees the
		// presentation bumps below whenever in this section it is told.
		r.replicator()
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
