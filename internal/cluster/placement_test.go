package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func roomNames(n int) []string {
	rooms := make([]string, n)
	for i := range rooms {
		rooms[i] = fmt.Sprintf("room-%04d", i)
	}
	return rooms
}

// TestPlacementBalance pins the satellite acceptance number: 3 nodes ×
// 1k rooms balance within 10% of the ideal share.
func TestPlacementBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	p := NewPlacement(nodes)
	counts := make(map[string]int)
	const nRooms = 1000
	for _, r := range roomNames(nRooms) {
		counts[p.Owner(r)]++
	}
	ideal := float64(nRooms) / float64(len(nodes))
	for _, n := range nodes {
		got := float64(counts[n])
		if dev := (got - ideal) / ideal; dev > 0.10 || dev < -0.10 {
			t.Errorf("node %s owns %d rooms: %+.1f%% from ideal %.0f (want within 10%%)",
				n, counts[n], dev*100, ideal)
		}
	}
	t.Logf("ownership: %v (ideal %.0f)", counts, ideal)
}

// TestPlacementStability pins minimal movement: when a node joins, the
// only rooms that move are those the new node now owns; when a node
// leaves, only that node's rooms move — and each lands on what was its
// rank-2 standby.
func TestPlacementStability(t *testing.T) {
	rooms := roomNames(1000)
	three := NewPlacement([]string{"n1", "n2", "n3"})
	four := NewPlacement([]string{"n1", "n2", "n3", "n4"})

	// Join: a room may change owner only by moving TO the joiner.
	moved := 0
	for _, r := range rooms {
		before, after := three.Owner(r), four.Owner(r)
		if before != after {
			if after != "n4" {
				t.Fatalf("room %s moved %s → %s on n4's join (only moves to n4 are minimal)", r, before, after)
			}
			moved++
		}
	}
	// The joiner should take about a quarter of the rooms — not none,
	// not a reshuffle.
	if moved < 150 || moved > 350 {
		t.Errorf("n4 join moved %d/1000 rooms; want ≈250 (minimal, balanced movement)", moved)
	}

	// Leave: only n3's rooms move, each to its previous standby.
	two := NewPlacement([]string{"n1", "n2"})
	for _, r := range rooms {
		before, after := three.Owner(r), two.Owner(r)
		if before != "n3" {
			if before != after {
				t.Fatalf("room %s moved %s → %s though n3 (its non-owner) left", r, before, after)
			}
			continue
		}
		if want := three.Standby(r); after != want {
			t.Fatalf("room %s owned by departed n3 landed on %s; want its standby %s", r, after, want)
		}
	}
}

// weightOrder ranks nodes for room the long way: every member sorted by
// descending weight, ties by ascending id — the order Owner and Standby
// must agree with.
func weightOrder(nodes []string, room string) []string {
	order := append([]string(nil), nodes...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := weight(order[i], room), weight(order[j], room)
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	return order
}

// TestWeightIsFNV1aOverNodeAndRoom holds weight to hash/fnv's FNV-1a
// over node‖0x00‖room and the splitmix64 finalizer, for a room given as
// a string or as bytes: every node places a room alike, whichever form
// its caller holds the name in.
func TestWeightIsFNV1aOverNodeAndRoom(t *testing.T) {
	ref := func(node, room string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(node))
		h.Write([]byte{0})
		h.Write([]byte(room))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	check := func(node, room string) bool {
		want := ref(node, room)
		return weight(node, room) == want && weight(node, []byte(room)) == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, room := range append(roomNames(50), "", "consult") {
		if !check("n1", room) {
			t.Errorf("weight(n1, %q) differs from FNV-1a", room)
		}
	}
}

// TestPlacementProperties quick-checks the structural invariants on
// arbitrary member sets and room names: determinism, membership of the
// result, and that Owner and Standby are the first two of the full
// weight order.
func TestPlacementProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Rand:     rand.New(rand.NewSource(1)),
	}
	prop := func(nodeSeeds []uint8, room string) bool {
		nodes := make([]string, 0, len(nodeSeeds))
		for _, s := range nodeSeeds {
			nodes = append(nodes, fmt.Sprintf("node-%d", s%8))
		}
		p := NewPlacement(nodes)
		rank := weightOrder(p.Nodes(), room)
		seen := make(map[string]struct{}, len(rank))
		for _, n := range rank {
			if _, dup := seen[n]; dup {
				return false
			}
			seen[n] = struct{}{}
		}
		for _, n := range nodes {
			if _, ok := seen[n]; !ok || !slices.Contains(p.nodes, n) {
				return false
			}
		}
		owner, standby := p.Owner(room), p.Standby(room)
		switch {
		case p.Len() == 0:
			return owner == "" && standby == ""
		case p.Len() == 1:
			return owner == rank[0] && standby == ""
		case owner != rank[0] || standby != rank[1]:
			return false
		}
		// Deterministic under re-construction with shuffled input order.
		shuffled := append([]string(nil), nodes...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(weight(room, shuffled[i]) % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return NewPlacement(shuffled).Owner(room) == owner
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementChurnConvergence walks a seeded random membership churn
// sequence and checks that any two placements built from the same live
// set agree on every room — the property split-brain rejection rests
// on once a partition heals.
func TestPlacementChurnConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	all := []string{"n1", "n2", "n3", "n4", "n5"}
	rooms := roomNames(100)
	for step := 0; step < 50; step++ {
		live := make([]string, 0, len(all))
		for _, n := range all {
			if rng.Intn(4) > 0 { // each node up with p=0.75
				live = append(live, n)
			}
		}
		a := NewPlacement(live)
		// Same set presented in reverse and with duplicates.
		rev := make([]string, 0, 2*len(live))
		for i := len(live) - 1; i >= 0; i-- {
			rev = append(rev, live[i], live[i])
		}
		b := NewPlacement(rev)
		for _, r := range rooms {
			if a.Owner(r) != b.Owner(r) || a.Standby(r) != b.Standby(r) {
				t.Fatalf("step %d: placements over the same live set %v disagree on %s", step, live, r)
			}
		}
	}
}

// TestPlacementTieBreak: two members of equal weight rank by id, in
// either order of comparison, and a heavier one outranks a lower id.
// Real weights do not collide, so the order is checked where it is
// decided.
func TestPlacementTieBreak(t *testing.T) {
	if !outranks("n1", 7, "n2", 7) || outranks("n2", 7, "n1", 7) {
		t.Error("equal weights do not rank by ascending id")
	}
	if !outranks("n2", 8, "n1", 7) || outranks("n1", 7, "n2", 8) {
		t.Error("the heavier member does not come first")
	}
	if outranks("n1", 7, "n1", 7) {
		t.Error("a member outranks itself")
	}
}
