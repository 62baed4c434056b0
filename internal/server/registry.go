package server

import (
	"hash/fnv"
	"sync"
)

// defaultRegistryShards sizes the room table. 32 shards keep the
// probability of two hot rooms colliding low while the array stays
// small enough to scan for snapshots.
const defaultRegistryShards = 32

// regShard is one lock domain of the room table.
type regShard struct {
	mu    sync.RWMutex
	rooms map[string]*roomState
}

// registry is the sharded room table of the interaction server. Room
// lookups on the hot path (every choice, annotation, chat) take only
// their shard's read lock, so concurrent traffic in different rooms
// never contends on a single global mutex. The shard array is fixed at
// construction; names map to shards by FNV-1a hash.
type registry struct {
	shards []regShard
}

// newRegistry builds a registry with the given shard count: the server's
// is defaultRegistryShards, and BenchmarkRegistryLookup sets one shard
// against it.
func newRegistry(shards int) *registry {
	g := &registry{shards: make([]regShard, shards)}
	for i := range g.shards {
		g.shards[i].rooms = make(map[string]*roomState)
	}
	return g
}

func (g *registry) shard(name string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &g.shards[h.Sum32()%uint32(len(g.shards))]
}

// get returns the named room, if live.
func (g *registry) get(name string) (*roomState, bool) {
	sh := g.shard(name)
	sh.mu.RLock()
	rs, ok := sh.rooms[name]
	sh.mu.RUnlock()
	return rs, ok
}

// getOrCreate returns the named room, building it with create when
// absent. The shard's write lock is held across create so concurrent
// first joiners race to a single room — creation (a database fetch)
// blocks only rooms hashing to the same shard. created reports whether
// this call built the room; when false the caller must re-validate the
// existing room's document binding.
func (g *registry) getOrCreate(name string, create func() (*roomState, error)) (rs *roomState, created bool, err error) {
	sh := g.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rs, ok := sh.rooms[name]; ok {
		return rs, false, nil
	}
	rs, err = create()
	if err != nil {
		return nil, false, err
	}
	sh.rooms[name] = rs
	return rs, true, nil
}

// remove drops the named room from the table (the caller closes it).
func (g *registry) remove(name string) {
	sh := g.shard(name)
	sh.mu.Lock()
	delete(sh.rooms, name)
	sh.mu.Unlock()
}

// forEach visits every live room. The visited set is a snapshot; fn
// runs without any shard lock held, so it may call back into the
// registry or block on room locks.
func (g *registry) forEach(fn func(name string, rs *roomState)) {
	type entry struct {
		name string
		rs   *roomState
	}
	var snap []entry
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for name, rs := range sh.rooms {
			snap = append(snap, entry{name, rs})
		}
		sh.mu.RUnlock()
	}
	for _, e := range snap {
		fn(e.name, e.rs)
	}
}

// closeAll closes every room and empties the table.
func (g *registry) closeAll() {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		rooms := sh.rooms
		sh.rooms = make(map[string]*roomState)
		sh.mu.Unlock()
		for _, rs := range rooms {
			rs.room.Close()
		}
	}
}
