package room

import "sort"

// changeBufferSize bounds the room's change buffer (oldest entries are
// discarded first — "the changed objects are saved and discarded from the
// room as soon as they are not needed").
const changeBufferSize = 1024

// changeBuffer is the room's change buffer: the last changeBufferSize
// broadcast events, ascending in Seq, in a ring. The slice grows by
// doubling, up to exactly changeBufferSize slots and no further (append
// on its own rounds a 1 024-event array up by a quarter); once it holds
// that many, a new event overwrites the oldest in place, so a long-lived
// room allocates nothing here. The zero value is an empty buffer.
type changeBuffer struct {
	events []Event
	head   int // slot of the oldest event; 0 until the ring is full
}

// len is the number of buffered events.
func (b *changeBuffer) len() int { return len(b.events) }

// at returns the i-th oldest buffered event, 0 <= i < len.
func (b *changeBuffer) at(i int) *Event {
	return &b.events[(b.head+i)%len(b.events)]
}

// push buffers ev and returns the Seq of the event it displaced, 0 when
// the buffer had room (a buffered Seq is never 0).
func (b *changeBuffer) push(ev Event) (displaced uint64) {
	if len(b.events) < changeBufferSize {
		if len(b.events) == cap(b.events) {
			grown := make([]Event, len(b.events), min(max(2*len(b.events), 16), changeBufferSize))
			copy(grown, b.events)
			b.events = grown
		}
		b.events = append(b.events, ev)
		return 0
	}
	slot := &b.events[b.head]
	displaced = slot.Seq
	*slot = ev
	b.head = (b.head + 1) % changeBufferSize
	return displaced
}

// since copies out the buffered events with Seq greater than seq, oldest
// first; nil when there are none.
func (b *changeBuffer) since(seq uint64) []Event {
	n := b.len()
	first := sort.Search(n, func(i int) bool { return b.at(i).Seq > seq })
	if first == n {
		return nil
	}
	// The newest event sits just before head, so the run is one stretch
	// of the array, or two when it crosses the end.
	out := make([]Event, 0, n-first)
	start := (b.head + first) % n
	if start < b.head {
		return append(out, b.events[start:b.head]...)
	}
	return append(append(out, b.events[start:]...), b.events[:b.head]...)
}
