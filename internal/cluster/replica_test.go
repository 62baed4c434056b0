package cluster

import (
	"math/rand"
	"runtime"
	"testing"

	"mmconf/internal/document"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/workload"
)

// A standby's log keeps the newest replicaBuffer events in order, counts
// what it dropped in trimmed, and — the owner streams a request per
// event or two — once full takes each request in place: no allocation,
// and no copy of the buffer amortized over the requests either.
func TestReplicaApplyTrimsWithoutCopyingTheBuffer(t *testing.T) {
	r := &replica{}
	seq := uint64(0)
	req := &proto.ReplicateReq{Events: make([]room.Event, 2)}
	step := func() {
		seq++
		req.Seq = seq
		req.Events[0].Seq, req.Events[1].Seq = seq-1, seq // one overlapping, one new
		r.apply(req)
	}
	for seq < 3*replicaBuffer {
		step()
	}
	check := func() {
		t.Helper()
		if r.log.n != replicaBuffer || r.Seq != seq || r.Trimmed != seq-replicaBuffer {
			t.Fatalf("after %d events: %d held, seq %d, trimmed %d", seq, r.log.n, r.Seq, r.Trimmed)
		}
		for i, ev := range r.log.appendTo(nil) {
			if want := seq - replicaBuffer + 1 + uint64(i); ev.Seq != want {
				t.Fatalf("slot %d holds event %d, want %d", i, ev.Seq, want)
			}
		}
	}
	check()
	if !raceEnabled {
		const runs = 4 * replicaBuffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perApply := testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&after)
		if perApply != 0 {
			t.Errorf("%v allocations per request on a full buffer", perApply)
		}
		// AllocsPerRun makes one warm-up call besides the runs.
		if b := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); b >= 64 {
			t.Errorf("%.0f bytes allocated per request on a full buffer, want under 64", b)
		}
		check()
	}
	if l := len(r.log.events); l != replicaBuffer {
		t.Errorf("the ring has %d slots for a bound of %d", l, replicaBuffer)
	}
	// An owner that trimmed further ahead drops the standby's prefix too.
	r.apply(&proto.ReplicateReq{Seq: seq, Trimmed: seq - 10})
	if held := r.log.appendTo(nil); len(held) != 10 || held[0].Seq != seq-9 || r.Trimmed != seq-10 {
		t.Errorf("after the owner trimmed to %d: %d held, trimmed %d", seq-10, len(held), r.Trimmed)
	}
}

// sliceReplica is the reference a replica is checked against: the log
// as a plain slice, merged, trimmed and capped the obvious way.
type sliceReplica struct {
	events       []room.Event
	seq, trimmed uint64
}

func (m *sliceReplica) apply(req *proto.ReplicateReq) {
	var last uint64
	if len(m.events) > 0 {
		last = m.events[len(m.events)-1].Seq
	}
	for _, ev := range req.Events {
		if ev.Seq > last {
			m.events = append(m.events, ev)
			last = ev.Seq
		}
	}
	m.seq = max(m.seq, req.Seq)
	m.trimmed = max(m.trimmed, req.Trimmed)
	drop := 0
	for drop < len(m.events) && m.events[drop].Seq <= m.trimmed {
		drop++
	}
	if over := len(m.events) - drop - replicaBuffer; over > 0 {
		drop += over
	}
	if drop > 0 {
		m.trimmed = max(m.trimmed, m.events[drop-1].Seq)
		m.events = append([]room.Event(nil), m.events[drop:]...)
	}
}

// replicaOwner is the owner side of the property walk: its log, capped
// above replicaBuffer so that one resend can overflow the standby's ring,
// with Seqs that skip where a presentation consumed one unbuffered. Its
// recent history, trimmed events included, makes frames with lagging
// marks.
type replicaOwner struct {
	events       []room.Event
	history      []room.Event
	seq, trimmed uint64
}

const replicaOwnerCap = replicaBuffer + replicaBuffer/2

func (o *replicaOwner) advance(rng *rand.Rand) {
	for k := 1 + rng.Intn(6); k > 0; k-- {
		o.seq++
		if rng.Intn(8) == 0 {
			continue // a Seq with no buffered event
		}
		ev := room.Event{Seq: o.seq, ObjectID: 7 * o.seq}
		o.events = append(o.events, ev)
		o.history = append(o.history, ev)
	}
	if len(o.history) > 2*replicaOwnerCap {
		o.history = append(o.history[:0], o.history[replicaOwnerCap:]...)
	}
	o.trimTo(o.trimmed)
}

// trimTo moves the owner's trim mark to at least seq and applies its cap.
func (o *replicaOwner) trimTo(seq uint64) {
	o.trimmed = max(o.trimmed, seq)
	drop := 0
	for drop < len(o.events) && (o.events[drop].Seq <= o.trimmed || len(o.events)-drop > replicaOwnerCap) {
		drop++
	}
	if drop > 0 {
		o.trimmed = max(o.trimmed, o.events[drop-1].Seq)
		o.events = o.events[drop:]
	}
}

// lagging is a frame whose trim mark lags the standby's by up to lag,
// carrying the events past that mark: what a new owner restored from an
// older replica may send.
func (o *replicaOwner) lagging(standbyTrimmed, lag uint64) *proto.ReplicateReq {
	f := &proto.ReplicateReq{Seq: o.seq, Trimmed: standbyTrimmed - min(standbyTrimmed, lag)}
	for _, ev := range o.history {
		if ev.Seq > f.Trimmed {
			f.Events = append(f.Events, ev)
		}
	}
	return f
}

// frame is what the owner sends a cursor at since.
func (o *replicaOwner) frame(since uint64) *proto.ReplicateReq {
	f := &proto.ReplicateReq{Seq: o.seq, Trimmed: o.trimmed}
	for _, ev := range o.events {
		if ev.Seq > since {
			f.Events = append(f.Events, ev)
		}
	}
	return f
}

// TestReplicaMatchesSliceModel walks seeded mixes of full resends,
// incremental frames that overlap what the standby holds, owner trims,
// and frames whose trim mark lags the standby's, and holds the ring to the slice model after every frame: the
// same events in the same order, the same Seq and trim mark. Now and then
// the replica seeds a room, which must accept it.
func TestReplicaMatchesSliceModel(t *testing.T) {
	doc, err := workload.MedicalRecord("rec-replica", 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			owner replicaOwner
			model sliceReplica
			r     = &replica{Room: "walk", DocID: "rec-replica"}
		)
		for step := 0; step < 2500; step++ {
			owner.advance(rng)
			var f *proto.ReplicateReq
			switch op := rng.Intn(10); {
			case op == 0: // full resend
				f = owner.frame(0)
			case op == 1: // the owner trims ahead, and says so with or without events
				owner.trimTo(owner.trimmed + uint64(rng.Intn(int(owner.seq-owner.trimmed)+1)))
				f = owner.frame(model.seq)
				if rng.Intn(2) == 0 {
					f.Events = nil
				}
			case op == 2:
				f = owner.lagging(model.trimmed, uint64(rng.Intn(60)))
			default: // incremental, from a cursor at or a little behind the standby
				f = owner.frame(model.seq - min(model.seq, uint64(rng.Intn(40))))
			}
			r.apply(f)
			model.apply(f)
			held := r.log.appendTo(nil)
			if r.Seq != model.seq || r.Trimmed != model.trimmed || len(held) != len(model.events) {
				t.Fatalf("seed %d step %d: ring at seq %d trimmed %d with %d events, model at %d, %d with %d",
					seed, step, r.Seq, r.Trimmed, len(held), model.seq, model.trimmed, len(model.events))
			}
			for i := range held {
				if held[i].Seq != model.events[i].Seq || held[i].ObjectID != model.events[i].ObjectID {
					t.Fatalf("seed %d step %d: event %d is %d (object %d), model has %d (object %d)",
						seed, step, i, held[i].Seq, held[i].ObjectID, model.events[i].Seq, model.events[i].ObjectID)
				}
			}
			if step%500 == 499 {
				seedRoom(t, r, doc, seed, step)
			}
		}
	}
}

// seedRoom hands the replica to a room the way a new owner's first build
// does, through roomSeed, and checks that room.Restore takes it.
func seedRoom(t *testing.T, r *replica, doc *document.Document, seed int64, step int) {
	t.Helper()
	n := &Node{replicas: map[string]*replica{r.Room: r}}
	f, ok := n.roomSeed(r.Room)
	if !ok {
		t.Fatalf("seed %d step %d: roomSeed found no replica", seed, step)
	}
	if f.Room != r.Room || f.DocID != r.DocID || f.Seq != r.Seq || f.Trimmed != r.Trimmed || len(f.Events) != r.log.n {
		t.Fatalf("seed %d step %d: seeded frame %q/%q seq %d trimmed %d with %d events; replica at seq %d trimmed %d with %d",
			seed, step, f.Room, f.DocID, f.Seq, f.Trimmed, len(f.Events), r.Seq, r.Trimmed, r.log.n)
	}
	fresh, err := room.New(r.Room, doc)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(f.Events, f.Seq, f.Trimmed); err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
}
