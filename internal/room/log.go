package room

import "fmt"

// This file is the room's log as others read it: the replication tap, a
// standby's restore, and the sequence window late joiners catch up from.

// SetReplicator installs the event-log tap a cluster node replicates
// from: fn is called on every advance of the log, buffered event or bare
// Seq bump alike, and the node then reads what its standby lacks with
// LogSince. fn runs under the room lock — it must be cheap, must not
// block, and must not call back into the room.
func (r *Room) SetReplicator(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicator = fn
}

// LogSince reads the log past a replication cursor: it appends to dst
// the buffered events with Seq greater than since, and returns them with
// the Seq high-water and trim marks they were read under — one critical
// section, so no event is past seq and none at or below trimmed. A
// cursor that keeps dst reads the log without allocating once dst has
// grown to what one read carries. LogSince(nil, 0) is the whole log, in
// the shape Restore takes.
func (r *Room) LogSince(dst []Event, since uint64) (events []Event, seq, trimmed uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.appendSince(dst, since), r.seq, r.trimmed
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
