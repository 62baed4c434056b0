// Package cluster turns N mmconf server processes into one
// room-sharded conferencing service: every room name hashes to an
// owning node (rendezvous hashing over the live member set), a routing
// tier answers requests that land on the wrong node with a redirect or
// a transparent forward to the owner, room event logs replicate to the
// room's natural failover standby, and ownership hands off on drain or
// crash so detached clients resume — exactly once — on the new owner.
//
// The package is built cluster-first as an in-process harness over
// netsim (see Harness): nodes are real servers on real listeners, but
// every link runs through a fault controller, so partitions, crashes
// and latency are injected deterministically under `go test -race`.
package cluster

import "sort"

// Placement maps room names onto a set of node ids with rendezvous
// (highest-random-weight) hashing: for a room, every node's
// (node, room) pair is hashed and nodes are ranked by descending
// weight. The first node owns the room; the second is the
// natural failover standby — when the owner leaves the set, exactly
// its rooms move, each to its own standby, and nothing else shifts.
// A Placement is immutable once built; derive a new one per membership
// change.
type Placement struct {
	nodes []string
}

// NewPlacement builds a placement over the given node ids (order
// irrelevant, duplicates ignored). An empty set is legal — Owner and
// Standby return "".
func NewPlacement(nodes []string) *Placement {
	seen := make(map[string]struct{}, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if _, dup := seen[n]; dup || n == "" {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	sort.Strings(uniq) // deterministic iteration; weights decide placement
	return &Placement{nodes: uniq}
}

// Nodes returns the member ids the placement ranks over (sorted).
func (p *Placement) Nodes() []string { return append([]string(nil), p.nodes...) }

// Len reports the number of member nodes.
func (p *Placement) Len() int { return len(p.nodes) }

// roomName is a room's name as a string, or as the bytes of a routed
// request that spell it: the router hashes a name it reads in place, and
// copies nothing.
type roomName interface{ ~string | ~[]byte }

// weight scores one (node, room) pair: FNV-1a over node‖0x00‖room,
// finished with the splitmix64 mixer. The finalizer matters — raw
// FNV-1a is multiplicative enough that one node's weights dominate
// another's across most rooms (similar room names barely avalanche),
// which wrecks both balance and minimal movement; the mixer restores
// per-pair independence, so 3 nodes × 1k rooms balance within a few
// percent (the property test pins 10%). It is kept out of line: inlined
// into top2's loop it made an Owner call about a third slower (go1.24,
// linux/amd64, 3 nodes).
//
//go:noinline
func weight[R roomName](node string, room R) uint64 {
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for _, c := range []byte(node) {
		x = (x ^ uint64(c)) * prime
	}
	x *= prime // the 0x00 separator
	for _, c := range []byte(room) {
		x = (x ^ uint64(c)) * prime
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node owning room — the highest-weight member ("" on
// an empty placement). Every node computes the same answer from the
// same member set; no coordination, no stored map.
func (p *Placement) Owner(room string) string {
	owner, _ := top2(p, room)
	return owner
}

// Standby returns the second-ranked node for room ("" with fewer than
// two members) — the node event-log replication streams to, and the
// owner every client lands on after the owner dies.
func (p *Placement) Standby(room string) string {
	_, standby := top2(p, room)
	return standby
}

// top2 ranks p's members for room in one pass and returns the first two
// by descending weight, ties broken by node id, so the order is total
// and identical on every node.
func top2[R roomName](p *Placement, room R) (first, second string) {
	var fw, sw uint64
	for _, n := range p.nodes {
		w := weight(n, room)
		switch {
		case first == "" || outranks(n, w, first, fw):
			second, sw = first, fw
			first, fw = n, w
		case second == "" || outranks(n, w, second, sw):
			second, sw = n, w
		}
	}
	return first, second
}

// outranks reports whether node a with weight aw comes before node b
// with weight bw: the heavier one, or on equal weights the lower id.
func outranks(a string, aw uint64, b string, bw uint64) bool {
	return aw > bw || (aw == bw && a < b)
}
