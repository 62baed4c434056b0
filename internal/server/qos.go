package server

import (
	"sync"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
)

// Counter names for the adaptive QoS loop, surfaced through
// Server.Stats() alongside the push.* and cache.* families.
const (
	// CounterQoSTuneChanges counts per-member bandwidth-level transitions
	// applied to the CP-net tuning variable (each one re-solves and
	// pushes that member's presentation).
	CounterQoSTuneChanges = "qos.tune_changes"
	// CounterQoSPrefetchPushes / Bytes count speculative payloads the
	// loop pre-pushed into member buffers, and their byte volume.
	CounterQoSPrefetchPushes = "qos.prefetch.pushes"
	CounterQoSPrefetchBytes  = "qos.prefetch.bytes"
)

// qosController closes the paper's §4.4 loop at runtime: every interval
// it reads each membership's measured write throughput (the wire layer's
// per-connection meter) and queue pressure, steps its bandwidth level
// with hysteresis, pins the level on the member's CP-net tuning variable
// (degrading resolution before components), and spends idle push-budget
// headroom pre-pushing the member's likeliest next payloads into their
// client-side buffer.
type qosController struct {
	s              *Server
	interval       time.Duration
	bands          qos.Bands
	prefetchBudget int64

	mu      sync.Mutex
	members map[*membership]struct{}
	// ticked is the list tick steps, kept from tick to tick so an idle
	// tick allocates nothing. Loop goroutine only.
	ticked []*membership

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// newQoSController wires the loop with qos.DefaultBands; in-package
// tests may set other bands before serving.
func newQoSController(s *Server, interval time.Duration, prefetchBudget int64) *qosController {
	return &qosController{
		s:              s,
		interval:       interval,
		bands:          qos.DefaultBands(),
		prefetchBudget: prefetchBudget,
		members:        make(map[*membership]struct{}),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
}

func (q *qosController) run() {
	t := time.NewTicker(q.interval)
	defer t.Stop()
	defer close(q.done)
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			q.tick()
		}
	}
}

// stopLoop halts the ticker and waits for an in-flight tick to finish.
func (q *qosController) stopLoop() {
	q.stopOnce.Do(func() { close(q.stop) })
	<-q.done
}

// add places a bound membership under QoS control.
func (q *qosController) add(mb *membership) {
	q.mu.Lock()
	q.members[mb] = struct{}{}
	q.mu.Unlock()
}

// remove drops a membership when its event stream ends.
func (q *qosController) remove(mb *membership) {
	q.mu.Lock()
	delete(q.members, mb)
	q.mu.Unlock()
}

// tick runs one control period over the memberships live at its start.
func (q *qosController) tick() {
	q.mu.Lock()
	for mb := range q.members {
		q.ticked = append(q.ticked, mb)
	}
	q.mu.Unlock()
	for _, mb := range q.ticked {
		m := mb.peer.Meter()
		pressure := float64(mb.member.QueuedBytes()) / float64(q.s.pushBudget)
		if level := q.bands.Step(mb.level, m.Rate(), m.Samples(), pressure); level != mb.level {
			q.mu.Lock()
			mb.level = level
			q.mu.Unlock()
			// The member may have left or the document may carry no tuning
			// variable (no degradable components); both are benign.
			if _, err := mb.rs.room.SetMemberEnvironment(mb.user, core.BandwidthVariable, level.String()); err == nil {
				q.s.ctr.qosTuneChanges.Add(1)
			}
		}
		q.prefetch(mb)
	}
	clear(q.ticked) // hold no membership past its stream's end
	q.ticked = q.ticked[:0]
}

// prefetch pre-pushes the member's likeliest next payloads, best-ranked
// first, if its client holds a media buffer, within two budgets: the per-session prefetch allowance and the
// member's live push-budget headroom (speculative bytes must never
// starve real event delivery). Only candidates whose ObjectID indexes
// IMAGE_OBJECTS_TABLE are pushed — object ids are per table, and a
// PrefetchPush carries one image, which the client files in its media
// buffer under that image's id, where its next GetImage finds it.
func (q *qosController) prefetch(mb *membership) {
	if !mb.buffered || q.prefetchBudget <= 0 || mb.pushedBytes >= q.prefetchBudget {
		return
	}
	cands, err := mb.rs.room.Engine().PrefetchRank(mb.user)
	if err != nil {
		return
	}
	if mb.pushed == nil {
		mb.pushed = make(map[uint64]bool)
	}
	for _, cand := range cands {
		if mb.pushedBytes >= q.prefetchBudget {
			return
		}
		if mb.pushed[cand.ObjectID] || mediadb.KindTable(cand.Kind) != mediadb.ImageTable {
			continue
		}
		resp, err := q.s.getImage(cand.ObjectID, nil)
		if err != nil {
			continue
		}
		n := int64(len(resp.Data))
		if mb.pushedBytes+n > q.prefetchBudget {
			continue // over allowance; a smaller candidate may still fit
		}
		if mb.member.QueuedBytes()+n > q.s.pushBudget {
			return // no headroom this tick; retry when the queue drains
		}
		err = mb.peer.Push(proto.MPrefetchPush, &proto.PrefetchPush{
			Room: mb.rs.room.Name, ObjectID: cand.ObjectID,
			Digest: resp.Digest, Data: resp.Data,
		})
		if err != nil {
			return // connection is going away; its writer's exit removes the membership
		}
		mb.pushed[cand.ObjectID] = true
		mb.pushedBytes += n
		q.s.ctr.qosPrefetchPushes.Add(1)
		q.s.ctr.qosPrefetchBytes.Add(uint64(n))
	}
}

// addGauges reports the loop's live state into a metrics snapshot: the
// member count under control and the split across bandwidth levels.
func (q *qosController) addGauges(g map[string]int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var low, med, high int64
	for mb := range q.members {
		switch mb.level {
		case qos.Low:
			low++
		case qos.Medium:
			med++
		default:
			high++
		}
	}
	g["qos.clients"] = int64(len(q.members))
	g["qos.level_low"] = low
	g["qos.level_medium"] = med
	g["qos.level_high"] = high
}
