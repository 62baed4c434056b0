package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/wire"
)

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's cluster-unique name; Addr the client address it
	// advertises in redirects.
	ID   string
	Addr string
	// Peers maps every other node's id to its client address. The same
	// address serves clients and node links — node methods ride the
	// ordinary wire protocol at control priority. A cluster has at most
	// 64 nodes.
	Peers map[string]string
	// Dial opens node-link connections (nil: plain TCP). The harness
	// passes a netsim-faulted dialer here so node links partition and
	// die with their node.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Forward makes this node relay wrong-node requests transparently to
	// the owner instead of redirecting. Joins and mid-session operations
	// forward alike; pushed events relay back over the same per-client
	// link.
	Forward bool
	// HeartbeatInterval paces node pings (default 500ms); SuspectAfter
	// is how stale a peer's last pong may be before it is presumed dead
	// (default 3× the interval).
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// Logf, when set, receives node lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// maxNodes bounds the cluster size: a live set is one bit per node of a
// uint64 (Node.view).
const maxNodes = 64

func (c *Config) normalize() error {
	if c.ID == "" {
		return fmt.Errorf("cluster: node needs an ID")
	}
	if _, self := c.Peers[c.ID]; self {
		return fmt.Errorf("cluster: node %s lists itself as a peer", c.ID)
	}
	if len(c.Peers) >= maxNodes {
		return fmt.Errorf("cluster: %d nodes; a live set holds at most %d", len(c.Peers)+1, maxNodes)
	}
	if c.Dial == nil {
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	return nil
}

// Names under which the node publishes its dataset-sync counters in its
// server's wire.Stats (sys.stats, /debug/metrics).
const (
	CounterDatasetExports   = "cluster.dataset.exports"
	CounterDatasetUnchanged = "cluster.dataset.unchanged"
)

// Metrics counts the node's routing and replication activity.
type Metrics struct {
	// Redirects counts requests answered with a redirect to the owner;
	// Forwards counts requests relayed to the owner over a node link;
	// ForwardErrors counts relays that failed at the transport (the
	// origin client was told the cluster is unavailable).
	Redirects, Forwards, ForwardErrors int64
	// Unavailable counts requests refused for lack of a cluster
	// majority (split-brain rejection) or mid-drain.
	Unavailable int64
	// Replicated counts replication RPCs sent; Evictions counts local
	// rooms dropped because placement moved them to another node.
	Replicated, Evictions int64
	// ManifestSyncs counts replication frames that carried a dataset;
	// the Sync* counters aggregate what this node adopted as a standby:
	// rows applied, and chunks (with their payload bytes) pulled because
	// its CAS lacked them. An unchanged resend moves none of the three.
	ManifestSyncs                                           int64
	SyncRowsAdopted, SyncChunksPulled, SyncChunkBytesPulled int64
	// DatasetExports counts replication flushes that exported the room's
	// dataset to compare or ship it; DatasetUnchanged counts those that
	// returned before the export because the store's change position had
	// not moved. The server's stats carry both, as cluster.dataset.exports
	// and cluster.dataset.unchanged.
	DatasetExports, DatasetUnchanged int64
}

// Node is one cluster member: an interaction server plus the routing
// tier that steers each room to its rendezvous owner, the liveness view
// that gates serving on a majority, and the event-log replication that
// makes failover resume exact. Build with New, serve with Serve.
type Node struct {
	cfg Config
	id  string
	srv *server.Server
	db  *mediadb.MediaDB

	// peers is every other configured node, fixed in New; mu guards
	// what each peerState holds, not the map.
	mu    sync.Mutex
	peers map[string]*peerState
	// members is every configured node, this one included, sorted by id
	// once in New: bit i of a live set is members[i]. Its peer is nil at
	// this node's own slot.
	members []member
	// liveMask is the live set place and placeKey were built for.
	liveMask uint64
	place    *Placement
	placeKey string
	draining bool

	// replicas holds event logs replicated here for rooms this node
	// stands by for; becoming owner consumes them as room seeds.
	replMu   sync.Mutex
	replicas map[string]*replica

	// rep holds the owner-side replication cursor of each local room,
	// and lastRec the live-set key the last reconcile acted on. Only the
	// replication loop (replLoop) touches either.
	rep     map[string]*repState
	lastRec string
	// marked holds the rooms a tap reported advanced since the loop last
	// looked. repWake wakes the loop: a tap, a failed ping or a peer that
	// came back. calls runs a function on the loop (onLoop).
	repMu   sync.Mutex
	marked  map[string]struct{}
	repWake chan struct{}
	calls   chan func()

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	redirects, forwards, forwardErrs  atomic.Int64
	unavailable, replicated           atomic.Int64
	evictions, manifestSyncs          atomic.Int64
	syncRowsAdopted, syncChunksPulled atomic.Int64
	syncChunkBytes                    atomic.Int64
	// Unsigned because wire.Stats binds them (New).
	datasetExports, datasetUnchanged atomic.Uint64
}

// peerState is this node's view of one configured peer.
type peerState struct {
	id, addr string
	link     peerLink
	// lastSeen is the last successful contact (zero: presumed dead);
	// draining marks a peer that announced an orderly departure.
	lastSeen time.Time
	draining bool
}

// member is one configured node in the sorted member list.
type member struct {
	id   string
	peer *peerState // nil for the node itself
}

// peerLink is the lazily dialed control connection to one peer —
// heartbeats and replication share it. It carries its own lock so link
// churn never contends with the liveness view.
type peerLink struct {
	id, addr string
	mu       sync.Mutex
	rpc      *wire.Client
}

// New builds a cluster node around a server constructed with opts. The
// node fills opts.Cluster with itself (hooks). Call Serve to accept,
// Close (or Drain) to stop.
func New(db *mediadb.MediaDB, opts server.Options, cfg Config) (*Node, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		id:       cfg.ID,
		db:       db,
		peers:    make(map[string]*peerState, len(cfg.Peers)),
		replicas: make(map[string]*replica),
		rep:      make(map[string]*repState),
		marked:   make(map[string]struct{}),
		repWake:  make(chan struct{}, 1),
		calls:    make(chan func()),
		closed:   make(chan struct{}),
	}
	n.members = append(n.members, member{id: n.id})
	for id, addr := range cfg.Peers {
		ps := &peerState{id: id, addr: addr, link: peerLink{id: id, addr: addr}}
		n.peers[id] = ps
		n.members = append(n.members, member{id: id, peer: ps})
	}
	sort.Slice(n.members, func(i, j int) bool { return n.members[i].id < n.members[j].id })
	opts.Cluster = hooks{n}
	srv, err := server.NewWith(db, opts)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	srv.Stats().Bind(CounterDatasetExports, &n.datasetExports)
	srv.Stats().Bind(CounterDatasetUnchanged, &n.datasetUnchanged)
	srv.Register(proto.MNodePing, wire.Typed(n.handlePing))
	srv.Register(proto.MNodeIngress, wire.Typed(n.handleIngress))
	srv.Register(proto.MNodeReplicate, wire.Typed(n.handleReplicate))
	srv.Register(proto.MNodeFetchChunks, wire.Typed(n.handleFetchChunks))
	for _, ps := range n.peers {
		n.wg.Add(1)
		go n.pinger(ps)
	}
	n.wg.Add(1)
	go n.replLoop()
	return n, nil
}

// hooks is the node as its server sees it, through the server.Cluster
// seam: a type of its own, so those methods stay off Node's API.
type hooks struct{ n *Node }

func (h hooks) Route(ctx context.Context, p *wire.Peer, method string, payload []byte) (any, bool, error) {
	return h.n.route(ctx, p, method, payload)
}
func (h hooks) PeerClosed(p *wire.Peer)                   { h.n.peerClosed(p) }
func (h hooks) RoomSeed(roomName string) (room.Log, bool) { return h.n.roomSeed(roomName) }
func (h hooks) RoomTap(roomName string)                   { h.n.roomTap(roomName) }

// Server exposes the node's interaction server (stats, shutdown seams).
func (n *Node) Server() *server.Server { return n.srv }

// Metrics returns a snapshot of the node's routing counters.
func (n *Node) Metrics() Metrics {
	return Metrics{
		Redirects:     n.redirects.Load(),
		Forwards:      n.forwards.Load(),
		ForwardErrors: n.forwardErrs.Load(),
		Unavailable:   n.unavailable.Load(),
		Replicated:    n.replicated.Load(),
		Evictions:     n.evictions.Load(),

		ManifestSyncs:        n.manifestSyncs.Load(),
		SyncRowsAdopted:      n.syncRowsAdopted.Load(),
		SyncChunksPulled:     n.syncChunksPulled.Load(),
		SyncChunkBytesPulled: n.syncChunkBytes.Load(),

		DatasetExports:   int64(n.datasetExports.Load()),
		DatasetUnchanged: int64(n.datasetUnchanged.Load()),
	}
}

// Serve accepts client and node-link connections on l until it closes.
func (n *Node) Serve(l net.Listener) error { return n.srv.Serve(l) }

// Close stops the node abruptly: background loops halt, node links
// close, and the server shuts down with its default drain budget.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.closed) })
	err := n.srv.Close()
	for _, ps := range n.peers {
		ps.link.close()
	}
	n.wg.Wait()
	return err
}

// Drain hands the node's rooms off and shuts down: peers learn the node
// is leaving (so placement moves before clients reconnect), every local
// room's whole log and dataset are pushed to its post-drain owner and
// standby, then the server shuts down gracefully — members get the
// shutdown announcement, reconnect, follow the redirect, and resume on
// the new owner from the replicated log.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
	// Announce the departure on every live link.
	for _, ps := range n.peers {
		pctx, cancel := context.WithTimeout(ctx, n.cfg.SuspectAfter)
		if rpc, err := ps.link.get(pctx, n); err == nil {
			var resp proto.NodePingResp
			_ = rpc.CallCtx(pctx, proto.MNodePing, &proto.NodePingReq{Node: n.id, Draining: true}, &resp)
		}
		cancel()
	}
	// The final pass, on the loop: the post-drain placement excludes
	// this node, and each room goes whole to its owner and standby there.
	n.onLoop(func() {
		after := n.placementWithout(n.id)
		for _, name := range n.srv.Rooms() {
			st := n.cursor(name)
			for _, target := range []string{after.Owner(name), after.Standby(name)} {
				if target != "" && target != n.id {
					st.sent = 0
					n.replicate(name, target, st, n.position())
				}
			}
		}
	})
	n.closeOnce.Do(func() { close(n.closed) })
	err := n.srv.Shutdown(ctx)
	for _, ps := range n.peers {
		ps.link.close()
	}
	n.wg.Wait()
	return err
}

// placementWithout builds the placement over the current live set minus
// the given node.
func (n *Node) placementWithout(id string) *Placement {
	place, _ := n.view()
	nodes := make([]string, 0, place.Len())
	for _, m := range place.Nodes() {
		if m != id {
			nodes = append(nodes, m)
		}
	}
	return NewPlacement(nodes)
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// view computes the node's current placement and whether it holds a
// cluster majority. Liveness is heartbeat-driven: a peer is live if it
// answered (or sent) a ping within SuspectAfter and has not announced a
// drain. The live set is a bitmask over the sorted members, so at
// steady membership a call allocates nothing; the placement and its key
// are rebuilt only when the mask changes.
func (n *Node) view() (*Placement, bool) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.viewLocked(now)
}

// viewLocked is view for a caller that holds n.mu.
func (n *Node) viewLocked(now time.Time) (*Placement, bool) {
	var live uint64
	count := 0
	for i, m := range n.members {
		if m.peer == nil || n.liveLocked(m.peer, now) {
			live |= 1 << i
			count++
		}
	}
	if n.place == nil || live != n.liveMask {
		ids := make([]string, 0, count)
		for i, m := range n.members {
			if live&(1<<i) != 0 {
				ids = append(ids, m.id)
			}
		}
		n.liveMask = live
		n.place = NewPlacement(ids)
		n.placeKey = strings.Join(ids, ",")
	}
	return n.place, 2*count > len(n.members)
}

// liveLocked reports whether the peer counts as live at now: it answered
// (or sent) a ping within SuspectAfter and announced no drain. Callers
// hold n.mu.
func (n *Node) liveLocked(ps *peerState, now time.Time) bool {
	return !ps.draining && !ps.lastSeen.IsZero() && now.Sub(ps.lastSeen) <= n.cfg.SuspectAfter
}

// Live returns the node's current view of the live member set (itself
// included), sorted — the harness and tests assert convergence on it.
func (n *Node) Live() []string {
	place, _ := n.view()
	return place.Nodes()
}

// HasQuorum reports whether this node currently holds a cluster
// majority and is therefore willing to serve room-scoped requests.
func (n *Node) HasQuorum() bool {
	_, q := n.view()
	return q
}

// markLive records contact with a peer. A peer that was not live wakes
// the replication loop, whose next pass reconciles the new live set.
func (n *Node) markLive(id string) {
	now, back := time.Now(), false
	n.mu.Lock()
	if ps, ok := n.peers[id]; ok {
		back = !n.liveLocked(ps, now)
		ps.lastSeen, ps.draining = now, false
	}
	n.mu.Unlock()
	if back {
		n.wake()
	}
}

// markDead forgets a peer immediately (failed ping or drain notice) —
// faster convergence than waiting out SuspectAfter — and wakes the loop.
func (n *Node) markDead(id string, draining bool) {
	n.mu.Lock()
	if ps, ok := n.peers[id]; ok {
		ps.lastSeen = time.Time{}
		ps.draining = draining
	}
	n.mu.Unlock()
	n.wake()
}

// handOffAttempts bounds how many passes send a moved room's whole log to
// its new owner before the room is dropped anyway. Each attempt is
// bounded by the link's call timeout, so a dead link holds the room at
// most that many timeouts.
const handOffAttempts = 3

// reconcile runs at the start of each pass of the replication loop and
// returns the placement the pass sends by. When the live set moved since
// the last reconcile, a room this node no longer owns is marked for a
// hand-off to its new owner (without a quorum it is dropped at once), a
// room marked earlier that is this node's again is unmarked, and every
// cursor is made dirty, since standbys may have moved too. The pass then
// sends each marked room its whole log and dataset like any flush, and
// drops the room once the frame lands or the attempts run out
// (handOffRoom). Single-ownership rests on this: a placement-moved room
// never keeps serving from its old node.
func (n *Node) reconcile() (*Placement, bool) {
	n.mu.Lock()
	place, quorum := n.viewLocked(time.Now())
	key := n.placeKey
	n.mu.Unlock()
	if key == n.lastRec {
		return place, quorum
	}
	n.lastRec = key
	n.logf("cluster %s: live set now {%s} quorum=%v", n.id, key, quorum)
	for _, name := range n.srv.Rooms() {
		st := n.cursor(name)
		st.handOff, st.attempts = "", 0
		owner := place.Owner(name)
		switch {
		case owner == n.id || owner == "":
		case quorum:
			st.handOff, st.attempts = owner, handOffAttempts
		default:
			n.evictRoom(name, "ownership moved to "+owner)
			delete(n.rep, name)
		}
	}
	n.markAllDirty()
	return place, quorum
}

// evictRoom drops a local room; the server disconnects the connections
// that are its members, so their clients reconnect to the new owner.
func (n *Node) evictRoom(name, why string) {
	if !n.srv.DropRoom(name) {
		return
	}
	n.evictions.Add(1)
	n.logf("cluster %s: evicting room %q (%s)", n.id, name, why)
}

// peerClosed is the server's peer-teardown hook: tear down any ingress
// links relaying for the peer (the owner node sees those conns die and
// detaches the forwarded sessions, which stay resumable for the grace
// period).
func (n *Node) peerClosed(p *wire.Peer) {
	if v, ok := p.Meta(metaIngressLinks); ok {
		v.(*ingressSet).closeAll()
	}
}

// --- routing ---

// metaIngress marks a server-side peer as a node-link ingress (value:
// origin node id); metaIngressLinks holds a client peer's per-owner
// relay links on the forwarding node.
const (
	metaIngress      = "cluster.ingress"
	metaIngressLinks = "cluster.links"
)

// route is the routing tier, the server's Route seam: it sees every
// request before admission, so a redirected or forwarded request never
// consumes an admission slot. Room-scoped requests are steered to the
// room's owner: served here, redirected, or — on a forwarding node —
// relayed transparently. Requests with no room scope (object fetches,
// stats) serve anywhere.
func (n *Node) route(ctx context.Context, p *wire.Peer, method string, payload []byte) (any, bool, error) {
	roomName, ok := proto.RoomOf(method, payload)
	if !ok {
		// No room scope, or undecodable: serve here and let the handler
		// produce the real error.
		return nil, false, nil
	}
	if n.isDraining() {
		n.unavailable.Add(1)
		return nil, true, &wire.UnavailableError{Node: n.id, Reason: "draining"}
	}
	place, quorum := n.view()
	if !quorum {
		// Split-brain rejection: a minority node must not serve (or
		// relay) room mutations — the majority side may already have
		// moved the room and be accepting writes.
		n.unavailable.Add(1)
		return nil, true, &wire.UnavailableError{Node: n.id, Reason: "no cluster majority"}
	}
	owner, _ := top2(place, roomName)
	if owner == n.id || owner == "" {
		return nil, false, nil
	}
	if _, ingress := p.Meta(metaIngress); ingress {
		// A relayed request landing on a non-owner: placement moved
		// under the relay. The redirect travels back through the
		// forwarding node verbatim; the origin client follows it.
		n.redirects.Add(1)
		return nil, true, n.redirectTo(owner)
	}
	if n.cfg.Forward {
		result, err := n.forward(ctx, p, owner, method, payload)
		return result, true, err
	}
	n.redirects.Add(1)
	return nil, true, n.redirectTo(owner)
}

// redirectTo builds the typed redirect for the owner node.
func (n *Node) redirectTo(owner string) error {
	return &wire.RedirectError{Node: owner, Addr: n.cfg.Peers[owner]}
}

// roomSeed is the server's room-construction hook: a room being built
// here that has a replicated log (this node was its standby, or
// received a hand-off) restores that log first, so resuming
// clients replay their outage exactly — same sequences, no duplicates.
func (n *Node) roomSeed(roomName string) (room.Log, bool) {
	n.replMu.Lock()
	r := n.replicas[roomName]
	// The live room becomes the authority; the replica entry would only
	// go stale under it.
	delete(n.replicas, roomName)
	n.replMu.Unlock()
	if r == nil {
		return room.Log{}, false
	}
	return r.log, true
}
