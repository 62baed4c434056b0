package room

import (
	"context"
	"testing"
)

// choiceAllocations measures the allocations of one choice in a
// four-member room whose members keep up, its log already full;
// tap, when non-nil, is installed as the room's replicator first, and the
// last private members have each made a private operation on the
// component the choice moves.
func choiceAllocations(t *testing.T, tap func(), private int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	r := newRoom(t)
	if tap != nil {
		r.SetReplicator(tap)
	}
	ctx := context.Background()
	var members []*Member
	for _, name := range []string{"a", "b", "c", "d"} {
		m, _, _, err := r.Join(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	for _, m := range members[len(members)-private:] {
		if _, err := r.Operation(ctx, m.Name, "ct", "zoom", "full", true); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	step := func() {
		i++
		if err := r.Choice(ctx, "a", "ct", []string{"segmented", "full"}[i%2]); err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			for len(m.Events()) > 0 {
				m.Consumed(<-m.Events())
			}
		}
	}
	for r.log.n < logSize {
		step() // fill the ring first: growing it is not the choice's cost
	}
	return testing.AllocsPerRun(500, step)
}

// TestChoiceAllocations pins what one choice costs a four-member room
// whose members keep up: one solved view for the four of them — the
// evidence re-pinned in the engine's own vector, the completion re-solved
// by propagation into one Solved that holds both its vectors, no map —
// and a shared encoding slot for the choice's fan-out and one for the
// presentation the four share, nothing per member: what differs between
// the view they hold and the new one is found when the presentation is
// encoded, not here. Measured 3 allocations; each further evidence class
// is one more. It was 11 while a solve swept the whole network into
// fresh maps, and 35 before one solve served a class.
func TestChoiceAllocations(t *testing.T) {
	if got := choiceAllocations(t, nil, 0); got > 3 {
		t.Errorf("%v allocations per choice in a four-member room, want at most 3", got)
	}
}

// TestTappedChoiceAllocations: being replicated costs the room nothing
// per choice. The tap is told that the log moved and carries no event, so
// none is copied for it; when it took the event's address, each broadcast
// put one more copy on the heap (352 B).
func TestTappedChoiceAllocations(t *testing.T) {
	taps := 0
	untapped := choiceAllocations(t, nil, 0)
	tapped := choiceAllocations(t, func() { taps++ }, 0)
	if tapped != untapped {
		t.Errorf("%v allocations per choice with a replicator installed, %v without", tapped, untapped)
	}
	if taps == 0 {
		t.Errorf("the replicator was never told of a choice")
	}
}

// TestPrivateMemberChoiceAllocations pins what a member with a private
// operation adds to a choice: their class's view extended by their
// private variable (one Solved) and, as their view is their own, a
// shared encoding slot for their presentation — at most 2, so 5 with one
// such member of four and 9 with three. It was 16 and 42 while each of
// them was solved alone, whole, through maps.
func TestPrivateMemberChoiceAllocations(t *testing.T) {
	for _, tc := range []struct{ private, want int }{{1, 5}, {3, 9}} {
		if got := choiceAllocations(t, nil, tc.private); got > float64(tc.want) {
			t.Errorf("%v allocations per choice with %d private members of four, want at most %d", got, tc.private, tc.want)
		}
	}
}
