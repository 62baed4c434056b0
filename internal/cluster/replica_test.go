package cluster

import (
	"testing"

	"mmconf/internal/proto"
	"mmconf/internal/room"
)

// A standby's log keeps the newest replicaBuffer events in order, counts
// what it dropped in trimmed, and — the owner streams a request per
// event or two — must not pay for the whole buffer on every request once
// it is full.
func TestReplicaApplyTrimsWithoutCopyingTheBuffer(t *testing.T) {
	r := &replica{}
	seq := uint64(0)
	step := func() {
		seq++
		r.apply(&proto.ReplicateReq{Seq: seq, Events: []room.Event{{Seq: seq - 1}, {Seq: seq}}}) // one overlapping, one new
	}
	for seq < 3*replicaBuffer {
		step()
	}
	check := func() {
		t.Helper()
		if len(r.Events) != replicaBuffer || r.Seq != seq || r.Trimmed != seq-replicaBuffer {
			t.Fatalf("after %d events: %d held, seq %d, trimmed %d", seq, len(r.Events), r.Seq, r.Trimmed)
		}
		for i, ev := range r.Events {
			if want := seq - replicaBuffer + 1 + uint64(i); ev.Seq != want {
				t.Fatalf("slot %d holds event %d, want %d", i, ev.Seq, want)
			}
		}
	}
	check()
	perApply := testing.AllocsPerRun(2*replicaBuffer, step)
	check()
	if perApply > 1 {
		t.Errorf("%.2f allocations per request on a full buffer", perApply)
	}
	if c := cap(r.Events); c > 3*replicaBuffer {
		t.Errorf("backing array grew to %d events for a bound of %d", c, replicaBuffer)
	}
	// An owner that trimmed further ahead drops the standby's prefix too.
	r.apply(&proto.ReplicateReq{Seq: seq, Trimmed: seq - 10})
	if len(r.Events) != 10 || r.Events[0].Seq != seq-9 || r.Trimmed != seq-10 {
		t.Errorf("after the owner trimmed to %d: %d held from %d, trimmed %d", seq-10, len(r.Events), r.Events[0].Seq, r.Trimmed)
	}
}
