package server

import (
	"sync"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/room"
	"mmconf/internal/wire"
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
// it reads each member connection's measured write throughput (the wire
// layer's per-peer meter) and queue pressure, classifies them into a
// bandwidth level with hysteresis, pins the level on the member's
// CP-net tuning variable (degrading resolution before components), and
// spends idle push-budget headroom pre-pushing the member's likeliest
// next payloads into their client-side buffer.
type qosController struct {
	s              *Server
	interval       time.Duration
	bands          qos.Bands
	prefetchBudget int64

	mu      sync.Mutex
	clients map[*room.Member]*qosClient

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// qosClient is one room membership under QoS control. The pushed set
// and pushedBytes are touched only by the controller goroutine.
type qosClient struct {
	peer     *wire.Peer
	rs       *roomState
	roomName string
	user     string
	member   *room.Member
	ctrl     *qos.Controller

	pushed      map[uint64]bool
	pushedBytes int64
}

// newQoSController wires the loop; bands were validated with Options.
func newQoSController(s *Server, interval time.Duration, bands qos.Bands, prefetchBudget int64) *qosController {
	return &qosController{
		s:              s,
		interval:       interval,
		bands:          bands,
		prefetchBudget: prefetchBudget,
		clients:        make(map[*room.Member]*qosClient),
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

// register places a new room membership under QoS control. Controllers
// start optimistic (high) like the tuning variable's unconditional
// preference, so nothing changes until the meter has real samples.
func (q *qosController) register(p *wire.Peer, rs *roomState, roomName, user string, member *room.Member) {
	ctrl, err := qos.NewController(q.bands)
	if err != nil {
		return // bands were validated at construction; unreachable
	}
	q.mu.Lock()
	q.clients[member] = &qosClient{
		peer: p, rs: rs, roomName: roomName, user: user,
		member: member, ctrl: ctrl, pushed: make(map[uint64]bool),
	}
	q.mu.Unlock()
}

// unregister drops a membership when its event stream ends.
func (q *qosController) unregister(member *room.Member) {
	q.mu.Lock()
	delete(q.clients, member)
	q.mu.Unlock()
}

// tick runs one control period over a snapshot of the live clients.
func (q *qosController) tick() {
	q.mu.Lock()
	clients := make([]*qosClient, 0, len(q.clients))
	for _, c := range q.clients {
		clients = append(clients, c)
	}
	q.mu.Unlock()
	for _, c := range clients {
		m := c.peer.Meter()
		var pressure float64
		if q.s.pushBudget > 0 {
			pressure = float64(c.member.QueuedBytes()) / float64(q.s.pushBudget)
		}
		level, changed := c.ctrl.Update(m.Rate(), m.Samples(), pressure)
		if changed {
			// The member may have left or the document may carry no tuning
			// variable (no degradable components); both are benign.
			if _, err := c.rs.room.SetMemberEnvironment(c.user, core.BandwidthVariable, level.String()); err == nil {
				q.s.stats.Add(CounterQoSTuneChanges, 1)
			}
		}
		q.prefetch(c)
	}
}

// prefetch pre-pushes the member's likeliest next payloads, best-ranked
// first, within two budgets: the per-session prefetch allowance and the
// member's live push-budget headroom (speculative bytes must never
// starve real event delivery). Only candidates whose ObjectID indexes
// IMAGE_OBJECTS_TABLE are pushed — object ids are per table, and a
// PrefetchPush carries one image, which the client files in its media
// buffer under that image's id, where its next GetImage finds it.
func (q *qosController) prefetch(c *qosClient) {
	if q.prefetchBudget <= 0 || c.pushedBytes >= q.prefetchBudget {
		return
	}
	cands, err := c.rs.room.Engine().PrefetchRank(c.user)
	if err != nil {
		return
	}
	for _, cand := range cands {
		if c.pushedBytes >= q.prefetchBudget {
			return
		}
		if c.pushed[cand.ObjectID] || mediadb.KindTable(cand.Kind) != mediadb.ImageTable {
			continue
		}
		resp, err := q.s.getImage(cand.ObjectID, nil)
		if err != nil {
			continue
		}
		n := int64(len(resp.Data))
		if c.pushedBytes+n > q.prefetchBudget {
			continue // over allowance; a smaller candidate may still fit
		}
		if q.s.pushBudget > 0 && c.member.QueuedBytes()+n > q.s.pushBudget {
			return // no headroom this tick; retry when the queue drains
		}
		err = c.peer.Push(proto.MPrefetchPush, &proto.PrefetchPush{
			Room: c.roomName, ObjectID: cand.ObjectID,
			Digest: resp.Digest, Data: resp.Data,
		})
		if err != nil {
			return // connection is going away; its writer's exit unregisters us
		}
		c.pushed[cand.ObjectID] = true
		c.pushedBytes += n
		q.s.stats.Add(CounterQoSPrefetchPushes, 1)
		q.s.stats.Add(CounterQoSPrefetchBytes, uint64(n))
	}
}

// addGauges reports the loop's live state into a metrics snapshot: the
// member count under control and the split across bandwidth levels.
func (q *qosController) addGauges(g map[string]int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var low, med, high int64
	for _, c := range q.clients {
		switch c.ctrl.Level() {
		case qos.Low:
			low++
		case qos.Medium:
			med++
		default:
			high++
		}
	}
	g["qos.clients"] = int64(len(q.clients))
	g["qos.level_low"] = low
	g["qos.level_medium"] = med
	g["qos.level_high"] = high
}
