package room

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the room's log: the one value the owner's room, its
// standby's replica and a takeover all hold, and the room's reads of it —
// the replication tap, a standby's restore, and the sequence window late
// joiners catch up from.

// logSize bounds the room's log (oldest entries are discarded first —
// "the changed objects are saved and discarded from the room as soon as
// they are not needed").
const logSize = 1024

// Log is a room's event log: the last logSize buffered events, ascending
// in Seq, in a ring; the Seq high-water mark, which also counts each
// presentation that consumes a Seq without being buffered; and the trim
// mark, the highest Seq discarded. Every event it holds lies within
// (Trimmed, Seq]. The ring grows by doubling up to exactly logSize slots
// and no further (append on its own rounds a 1 024-event array up by a
// quarter); once full, a new event overwrites the oldest in place, so a
// long-lived room, or a standby that keeps up, allocates nothing here.
// The zero value is an empty log.
type Log struct {
	events       []Event // len is the slots allocated
	head         int     // slot of the oldest event
	n            int     // events held
	seq, trimmed uint64
}

// Seq returns the latest Seq issued.
func (l *Log) Seq() uint64 { return l.seq }

// Trimmed returns the highest Seq ever discarded — the replay floor: a
// resume from at or after it is exact.
func (l *Log) Trimmed() uint64 { return l.trimmed }

// at returns the i-th oldest buffered event, 0 <= i < n.
func (l *Log) at(i int) *Event {
	return &l.events[(l.head+i)%len(l.events)]
}

// next issues the next Seq: a presentation's, which is not buffered, or
// one append stamps.
func (l *Log) next() uint64 {
	l.seq++
	return l.seq
}

// append stamps ev with the next Seq and buffers it.
func (l *Log) append(ev *Event) {
	ev.Seq = l.next()
	l.push(ev)
}

// push buffers a copy of ev as the newest event; a full ring overwrites
// its oldest event, which raises the trim mark.
func (l *Log) push(ev *Event) {
	if l.n == len(l.events) {
		if l.n == logSize {
			slot := &l.events[l.head]
			l.trimmed = slot.Seq
			*slot = *ev
			l.head = (l.head + 1) % logSize
			return
		}
		grown := make([]Event, min(max(2*l.n, 16), logSize))
		l.appendFrom(grown[:0], 0) // in place: grown holds them all
		l.events, l.head = grown, 0
	}
	*l.at(l.n) = *ev
	l.n++
}

// AppendSince appends the buffered events with Seq greater than seq to
// dst, oldest first, growing dst at most once.
func (l *Log) AppendSince(dst []Event, seq uint64) []Event {
	return l.appendFrom(dst, sort.Search(l.n, func(i int) bool { return l.at(i).Seq > seq }))
}

// appendFrom appends the i-th oldest event and every newer one to dst:
// one stretch of the array, or two when the run crosses its end.
func (l *Log) appendFrom(dst []Event, i int) []Event {
	if i == l.n {
		return dst
	}
	dst = slices.Grow(dst, l.n-i)
	size, start, end := len(l.events), l.head+i, l.head+l.n
	switch {
	case start >= size:
		return append(dst, l.events[start-size:end-size]...)
	case end <= size:
		return append(dst, l.events[start:end]...)
	}
	return append(append(dst, l.events[start:]...), l.events[:end-size]...)
}

// Merge folds one replication frame, events under the owner's seq and
// trimmed marks, into the log: a standby's apply. A frame whose events
// are not strictly ascending within (trimmed, seq] describes no log a
// room could serve; Merge refuses it, changing nothing, so it is turned
// away where it arrives and not at a takeover. Otherwise events the log
// already holds are skipped (a whole resend overlaps what incremental
// frames delivered), both marks only move forward, and the owner's trim
// mark drops the events through it.
func (l *Log) Merge(events []Event, seq, trimmed uint64) error {
	if trimmed > seq {
		return fmt.Errorf("room log: frame trimmed through %d past its seq %d", trimmed, seq)
	}
	last := trimmed
	for i := range events {
		if s := events[i].Seq; s <= last || s > seq {
			return fmt.Errorf("room log: frame event %d not ascending within (%d, %d]", s, trimmed, seq)
		}
		last = events[i].Seq
	}
	l.seq = max(l.seq, seq)
	if trimmed > l.trimmed {
		l.trimmed = trimmed
		for l.n > 0 && l.events[l.head].Seq <= trimmed {
			l.events[l.head] = Event{} // the array outlives the slot
			l.head = (l.head + 1) % len(l.events)
			l.n--
		}
	}
	newest := l.trimmed
	if l.n > 0 {
		newest = max(newest, l.at(l.n-1).Seq)
	}
	for i := range events {
		if ev := &events[i]; ev.Seq > newest {
			l.push(ev)
			newest = ev.Seq
		}
	}
	return nil
}

// SetReplicator installs the event-log tap a cluster node replicates
// from: fn is called on every advance of the log, buffered event or bare
// Seq bump alike, and the node then reads what its standby lacks with
// LogSince. fn runs under the room lock — it must be cheap, must not
// block, and must not call back into the room.
func (r *Room) SetReplicator(fn func()) {
	r.mu.Lock()
	defer r.unlock()
	r.replicator = fn
}

// LogSince reads the log past a replication cursor: it appends to dst
// the buffered events with Seq greater than since, and returns them with
// the Seq high-water and trim marks they were read under — one critical
// section, so no event is past seq and none at or below trimmed. A
// cursor that keeps dst reads the log without allocating once dst has
// grown to what one read carries. LogSince(nil, 0) is the whole log.
func (r *Room) LogSince(dst []Event, since uint64) (events []Event, seq, trimmed uint64) {
	r.mu.Lock()
	defer r.unlock()
	return r.log.AppendSince(dst, since), r.log.seq, r.log.trimmed
}

// Restore seeds a freshly built room with the log a failover standby
// merged from the old owner, adopting it rather than copying it. Merge
// checked every frame as it arrived, so the log is served as it is:
// Resume(since) on the restored room replays exactly the events the old
// owner would have — the handover substrate of the cluster tier. It
// refuses on a room that has already issued events or admitted members.
func (r *Room) Restore(l Log) error {
	r.mu.Lock()
	defer r.unlock()
	if r.log.seq != 0 || r.log.n != 0 || len(r.members) != 0 {
		return fmt.Errorf("room %s: restore into a live room", r.Name)
	}
	r.log = l
	return nil
}

// Seq returns the latest issued event sequence number.
func (r *Room) Seq() uint64 {
	r.mu.Lock()
	defer r.unlock()
	return r.log.seq
}

// Trimmed returns the room log's replay floor (Log.Trimmed).
func (r *Room) Trimmed() uint64 {
	r.mu.Lock()
	defer r.unlock()
	return r.log.trimmed
}

// History returns buffered events with Seq greater than since.
func (r *Room) History(since uint64) []Event {
	r.mu.Lock()
	defer r.unlock()
	return r.log.AppendSince(nil, since)
}
