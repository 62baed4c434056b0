package room

import (
	"sort"

	"mmconf/internal/media/image"
)

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

// Annotations returns a copy of an object's current overlay.
func (r *Room) Annotations(objectID uint64) []image.Annotation {
	r.mu.Lock()
	defer r.unlock()
	ann, ok := r.anns[objectID]
	if !ok {
		return nil
	}
	return append([]image.Annotation(nil), ann.Annotations...)
}

// FrozenBy reports who holds the freeze on an object ("" if unfrozen).
func (r *Room) FrozenBy(objectID uint64) string {
	r.mu.Lock()
	defer r.unlock()
	return r.frozen[objectID]
}

// Broadcaster returns the current presenter ("" when no broadcast runs).
func (r *Room) Broadcaster() string {
	r.mu.Lock()
	defer r.unlock()
	return r.broadcaster
}

// Detached lists the names of currently detached sessions, sorted.
func (r *Room) Detached() []string {
	r.mu.Lock()
	defer r.unlock()
	out := make([]string, 0, len(r.detached))
	for n := range r.detached {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Triggers lists installed triggers in installation order.
func (r *Room) Triggers() []*Trigger {
	r.mu.Lock()
	defer r.unlock()
	return append([]*Trigger(nil), r.triggers...)
}
