package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// This file is the node-link half of the cluster: the control links
// (heartbeat pings + replication) every node keeps to every peer, and
// the per-client ingress links a forwarding node opens to relay a
// wrong-node client's requests — and the owner's pushes — byte-for-byte.

// --- control links and liveness ---

// get returns the live control link to this peer, dialing when absent
// or dead. A fresh link's first ping is its handshake: the answer must
// come from the node the link is for, or the link is refused. Dial and
// handshake together take at most the suspicion timeout, so a peer that
// black-holes the dial holds the link's lock no longer than that.
func (l *peerLink) get(ctx context.Context, n *Node) (*wire.Client, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rpc != nil {
		select {
		case <-l.rpc.Done():
			l.rpc = nil
		default:
			return l.rpc, nil
		}
	}
	ctx, cancel := context.WithTimeout(ctx, n.cfg.SuspectAfter)
	defer cancel()
	conn, err := n.cfg.Dial(ctx, l.addr)
	if err != nil {
		return nil, err
	}
	rpc := wire.NewClient(conn)
	rpc.SetCallTimeout(2 * n.cfg.SuspectAfter)
	var resp proto.NodePingResp
	if err := rpc.CallCtx(ctx, proto.MNodePing, &proto.NodePingReq{Node: n.id, Draining: n.isDraining()}, &resp); err != nil {
		rpc.Close()
		return nil, err
	}
	if resp.Node != l.id {
		rpc.Close()
		return nil, fmt.Errorf("cluster: dialed %s expecting node %s, reached %s", l.addr, l.id, resp.Node)
	}
	l.rpc = rpc
	return rpc, nil
}

// close tears the control link down (the next get redials).
func (l *peerLink) close() {
	l.mu.Lock()
	if l.rpc != nil {
		l.rpc.Close()
		l.rpc = nil
	}
	l.mu.Unlock()
}

// pinger heartbeats one peer for the node's lifetime. Liveness is
// symmetric — each side both sends pings and observes received ones —
// so a one-way dial failure still converges.
func (n *Node) pinger(ps *peerState) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		n.pingOnce(ps)
		select {
		case <-n.closed:
			return
		case <-t.C:
		}
	}
}

// pingOnce sends one heartbeat and folds the outcome into the liveness
// view.
func (n *Node) pingOnce(ps *peerState) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SuspectAfter)
	defer cancel()
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		n.markDead(ps.id, false)
		return
	}
	var resp proto.NodePingResp
	if err := rpc.CallCtx(ctx, proto.MNodePing, &proto.NodePingReq{Node: n.id, Draining: n.isDraining()}, &resp); err != nil {
		ps.link.close()
		n.markDead(ps.id, false)
		return
	}
	n.markLive(ps.id)
}

// handlePing answers a heartbeat with this node's id, recording the
// sender's liveness (or its drain announcement).
func (n *Node) handlePing(ctx context.Context, p *wire.Peer, req *proto.NodePingReq) (*proto.NodePingResp, error) {
	if req.Draining {
		n.markDead(req.Node, true)
	} else {
		n.markLive(req.Node)
	}
	return &proto.NodePingResp{Node: n.id}, nil
}

// --- ingress forwarding ---

// ingressSet is a forwarding node's per-client bundle of relay links,
// keyed by owner node id. Each origin client gets its own connection to
// each owner it reaches through this node, so the owner sees one
// session scope per client (exactly as if the client had dialed it) and
// pushes relay back to the right client. Once the client is gone
// (closeAll) the set is closed: it opens no link, and a dial that
// settles after that closes its own.
type ingressSet struct {
	mu     sync.Mutex
	links  map[string]*ingressLink
	closed bool
}

// handleIngress marks the calling connection as a node-link ingress:
// requests relayed on it were originated by a client of req.Node, and
// this node must never re-forward them (one hop only — if placement
// moved again, the origin gets a redirect instead).
func (n *Node) handleIngress(ctx context.Context, p *wire.Peer, req *proto.NodeIngressReq) (*wire.None, error) {
	p.SetMeta(metaIngress, req.Node)
	return &wire.None{}, nil
}

// forward relays a room-scoped request to its owner over the origin
// client's ingress link and returns the owner's response payload
// verbatim. An owner-side handler error comes back as a *RemoteError
// and is returned as it is, so the origin's response carries the
// owner's status and fields; transport failures surface as
// cluster-unavailable, and the dead link is dropped so the next request
// redials.
func (n *Node) forward(ctx context.Context, p *wire.Peer, owner, method string, payload []byte) (any, error) {
	rpc, err := n.ingressLinkFor(ctx, p, owner)
	if err != nil {
		n.forwardErrs.Add(1)
		return nil, &wire.UnavailableError{Node: n.id, Reason: "relay to " + owner + " failed"}
	}
	body, err := rpc.CallRaw(ctx, method, payload)
	if err != nil {
		if re, ok := err.(*wire.RemoteError); ok {
			// The relay worked; the owner's handler said no. Pass its
			// error on.
			n.forwards.Add(1)
			return nil, re
		}
		n.forwardErrs.Add(1)
		n.dropIngressLink(p, owner, rpc)
		return nil, &wire.UnavailableError{Node: n.id, Reason: "relay to " + owner + " failed"}
	}
	n.forwards.Add(1)
	return wire.RawResult(body), nil
}

// ingressLinkFor returns (dialing on demand) the origin peer's relay
// link to owner. A link found dead is dropped and redialed once.
func (n *Node) ingressLinkFor(ctx context.Context, p *wire.Peer, owner string) (*wire.Client, error) {
	v, ok := p.Meta(metaIngressLinks)
	if !ok {
		v = p.MetaSetDefault(metaIngressLinks, newIngressSet())
	}
	set := v.(*ingressSet)
	for attempt := 0; attempt < 2; attempt++ {
		set.mu.Lock()
		if set.closed {
			set.mu.Unlock()
			return nil, errClientGone
		}
		lk := set.links[owner]
		if lk == nil {
			lk = &ingressLink{ready: make(chan struct{})}
			set.links[owner] = lk
			set.mu.Unlock()
			rpc, err := n.dialIngress(ctx, p, owner)
			set.mu.Lock()
			if set.closed && rpc != nil {
				rpc.Close()
				rpc, err = nil, errClientGone
			}
			lk.rpc, lk.err = rpc, err
			close(lk.ready)
			set.mu.Unlock()
		} else {
			set.mu.Unlock()
			// A settled link is the common case: look before asking ctx
			// for Done, which may build a context to wait on.
			select {
			case <-lk.ready:
			default:
				select {
				case <-lk.ready:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		if lk.err != nil {
			n.dropIngressLink(p, owner, nil)
			return nil, lk.err
		}
		select {
		case <-lk.rpc.Done():
			// Stale link from a previous owner incarnation; retry fresh.
			n.dropIngressLink(p, owner, lk.rpc)
			continue
		default:
		}
		return lk.rpc, nil
	}
	return nil, fmt.Errorf("cluster: relay link to %s will not stay up", owner)
}

// errClientGone refuses a relay for an origin client whose connection
// has closed.
var errClientGone = errors.New("cluster: the relaying client is gone")

// ingressLink is one lazily dialed relay connection; ready closes once
// the dial (by whichever request got there first) settles, under the
// set's lock.
type ingressLink struct {
	ready chan struct{}
	rpc   *wire.Client
	err   error
}

func newIngressSet() *ingressSet {
	return &ingressSet{links: make(map[string]*ingressLink)}
}

// closeAll closes the set and every relay link that has settled (the
// origin client is gone); a link still dialing closes itself when its
// dial settles.
func (s *ingressSet) closeAll() {
	s.mu.Lock()
	links := s.links
	s.links, s.closed = nil, true
	s.mu.Unlock()
	for _, lk := range links {
		select {
		case <-lk.ready:
			if lk.rpc != nil {
				lk.rpc.Close()
			}
		default:
		}
	}
}

// dropIngressLink forgets (and closes) the peer's relay link to owner.
func (n *Node) dropIngressLink(p *wire.Peer, owner string, rpc *wire.Client) {
	v, ok := p.Meta(metaIngressLinks)
	if !ok {
		return
	}
	set := v.(*ingressSet)
	set.mu.Lock()
	lk := set.links[owner]
	if lk != nil {
		select {
		case <-lk.ready:
		default:
			lk = nil // still dialing; leave it alone
		}
	}
	if lk != nil && (rpc == nil || lk.rpc == rpc) {
		delete(set.links, owner)
	}
	set.mu.Unlock()
	if rpc != nil {
		rpc.Close()
	}
}

// dialIngress opens a relay connection to owner on behalf of origin
// peer p: identify with an ingress mark, relay every push the owner
// sends back to the origin client byte-for-byte, and — should the link
// die while the client lives — close the client's connection so its
// reconnect supervisor redials and resumes on whatever node owns its
// rooms now.
func (n *Node) dialIngress(ctx context.Context, p *wire.Peer, owner string) (*wire.Client, error) {
	addr := n.cfg.Peers[owner]
	if addr == "" {
		return nil, fmt.Errorf("cluster: no address for node %s", owner)
	}
	dctx, cancel := context.WithTimeout(ctx, n.cfg.SuspectAfter)
	defer cancel()
	conn, err := n.cfg.Dial(dctx, addr)
	if err != nil {
		return nil, err
	}
	rpc := wire.NewClient(conn)
	rpc.SetCallTimeout(2 * n.cfg.SuspectAfter)
	if err := rpc.CallCtx(dctx, proto.MNodeIngress, &proto.NodeIngressReq{Node: n.id}, nil); err != nil {
		rpc.Close()
		return nil, err
	}
	rpc.OnPush(func(method string, body wire.Body) {
		// The body is valid only during this call; PushRaw copies it.
		_ = p.PushRaw(method, wire.EncBinary, body.Data)
	})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-rpc.Done():
			// The owner (or the path to it) died mid-session: the client's
			// forwarded sessions are marooned. Kill its connection; the
			// resume machinery takes it from there.
			_ = p.Close()
		case <-n.closed:
			rpc.Close()
		}
	}()
	return rpc, nil
}

// --- replication ---

// replica is a standby's copy of one room's log, and the document the
// room is built around. Shipped rows go to the store, not here.
type replica struct {
	DocID string
	log   room.Log
}

// handleReplicate accepts an owner's replication frame for a room this
// node stands by for (or is taking over). The log merges into the
// replica (room.Log.Merge), which refuses a frame no room could serve;
// the call then fails, and the owner resends the whole log. A replicated
// log strictly ahead of a live local room exposes the local copy as
// stale — this node served the room while partitioned away or before a
// handoff — so the local room is evicted rather than ever shadowing the
// authoritative log. A dataset riding the frame is adopted into the
// store (sync.go), and if that fails the call fails too.
func (n *Node) handleReplicate(ctx context.Context, p *wire.Peer, req *proto.ReplicateReq) (*proto.ReplicateResp, error) {
	n.replMu.Lock()
	r := n.replicas[req.Room]
	if r == nil {
		r = &replica{DocID: req.DocID}
		n.replicas[req.Room] = r
	}
	err := r.log.Merge(req.Events, req.Seq, req.Trimmed)
	seq := r.log.Seq()
	n.replMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cluster %s: replica of %q: %w", n.id, req.Room, err)
	}
	var local proto.ReplicateReq // read for its Seq: no events unless the local room is ahead
	if n.srv.SnapshotRoomInto(&local, req.Room, req.Seq) && req.Seq > local.Seq {
		n.evictRoom(req.Room, "newer replicated log")
	}
	if len(req.Rows) > 0 {
		if err := n.adoptDataset(ctx, req); err != nil {
			return nil, err
		}
	}
	return &proto.ReplicateResp{Seq: seq}, nil
}

// repState is the owner-side replication cursor for one room. The
// replication loop owns it.
type repState struct {
	// due: the log advanced past sent (the tap said so), the last send
	// failed or the placement moved; the loop's next pass flushes the room.
	due bool
	// standby is the node the last frame landed on and sent the Seq that
	// frame carried: the next flush ships LogSince(sent). sent 0 ships
	// the whole log and forces the dataset with it — a first flush, a
	// failed send, a standby or placement change, a hand-off.
	standby string
	sent    uint64
	// dataFP/dataPos are the dataset half of the cursor: the fingerprint
	// of the dataset the standby last saw, and the store position read
	// before the last export that was shipped or found identical to it.
	// A matching position skips the export; a matching fingerprint skips
	// the attach (sync.go).
	dataFP  [32]byte
	dataPos uint64
	// handOff, when set, is the room's new owner (reconcile): the passes
	// send the room there instead of to its standby, up to attempts more
	// times, and then drop it (handOffRoom).
	handOff  string
	attempts int
	// frame is the replication frame the log is read into, kept for its
	// event array (replicate).
	frame proto.ReplicateReq
}

// cursor returns the room's replication cursor, creating it.
func (n *Node) cursor(roomName string) *repState {
	st := n.rep[roomName]
	if st == nil {
		st = &repState{}
		n.rep[roomName] = st
	}
	return st
}

// roomTap is told of every local room event-log advance (under the room
// lock — it must not block): mark the room and wake the loop, which
// reads the log itself.
func (n *Node) roomTap(roomName string) {
	n.repMu.Lock()
	n.marked[roomName] = struct{}{}
	n.repMu.Unlock()
	n.wake()
}

// wake starts the replication loop's next pass without blocking.
func (n *Node) wake() {
	select {
	case n.repWake <- struct{}{}:
	default: // a pass is already due, and it will see what woke us
	}
}

// markAllDirty makes every room's next flush a full one — the whole log,
// and the dataset whether or not it changed.
func (n *Node) markAllDirty() {
	for _, st := range n.rep {
		st.due, st.sent = true, 0
	}
}

// replLoop is the one goroutine that sends replication frames, and the
// owner of every cursor. A wake-up or the heartbeat tick runs one pass;
// the tick retries what a failed send or a lost quorum left due and
// notices a peer that went silent. Between passes it runs what onLoop
// hands it.
func (n *Node) replLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.closed:
			return
		case fn := <-n.calls:
			fn()
		case <-n.repWake:
			n.pass()
		case <-t.C:
			n.pass()
		}
	}
}

// onLoop runs fn on the replication loop and returns once it has run, or
// at once, without running it, when the node has closed.
func (n *Node) onLoop(fn func()) {
	done := make(chan struct{})
	select {
	case n.calls <- func() { fn(); close(done) }:
		<-done
	case <-n.closed:
	}
}

// pass reconciles the placement, takes the taps' marks, and sends each
// room its cursor says is due: a hand-off to its new owner, or a flush to
// its standby. A hand-off attempt to a dead owner holds the other rooms
// back by at most one call timeout, as a dead standby does.
func (n *Node) pass() {
	place, quorum := n.reconcile()
	n.repMu.Lock()
	for name := range n.marked {
		n.cursor(name).due = true
	}
	clear(n.marked)
	n.repMu.Unlock()
	for name, st := range n.rep {
		switch {
		case st.handOff != "":
			n.handOffRoom(name, st)
		case st.due:
			n.flushRoom(name, st, place, quorum)
		}
	}
}

// flushRoom sends the room's standby what it lacks.
func (n *Node) flushRoom(name string, st *repState, place *Placement, quorum bool) {
	if !quorum {
		// A minority node must not replicate: its log may be the stale
		// side of a healed split. The room stays due, in full.
		st.sent = 0
		return
	}
	st.due = false
	if standby := place.Standby(name); standby != "" && standby != n.id {
		n.replicate(name, standby, st, n.position())
	}
}

// handOffRoom sends the room to the new owner its cursor is marked with,
// and drops it once the frame landed or the last attempt failed.
func (n *Node) handOffRoom(name string, st *repState) {
	owner := st.handOff
	if err := n.replicate(name, owner, st, n.position()); err != nil {
		if st.attempts--; st.attempts > 0 {
			return
		}
		n.logf("cluster %s: giving up handing %q off to %s after %d attempts: %v", n.id, name, owner, handOffAttempts, err)
	}
	n.evictRoom(name, "ownership moved to "+owner)
	delete(n.rep, name)
}

// replicate sends target one node.replicate frame for the room: the log
// past the cursor, read from the room's own log with the marks it was
// read under into the frame the cursor keeps (callPeer has encoded it by
// the time it returns, so once that frame has grown to a flush's size it
// allocates nothing for the events), and the room's dataset unless the
// cursor shows target already holds it (attachDataset). It is the one way
// a room leaves this node: a flush, a hand-off and a drain alike. It runs
// on the replication loop.
//
// pos is the store position read before the call. The log goes from
// st.sent, or from 0 when target is not the cursor's standby. The cursor
// moves only when the frame landed, so a lost frame is read again, not
// remembered; a failed send leaves the room due for a full resend.
//
// It returns the send's error: nil when the frame landed, or when the
// room is gone (its cursor with it) and there is nothing to send.
func (n *Node) replicate(name, target string, st *repState, pos uint64) error {
	if st.standby != target {
		st.sent = 0
	}
	req := &st.frame
	if !n.srv.SnapshotRoomInto(req, name, st.sent) {
		// The room is gone (evicted or closed): nothing to stream.
		delete(n.rep, name)
		return nil
	}
	fp, attached := n.attachDataset(req, st, st.sent == 0, pos)
	var resp proto.ReplicateResp
	err := n.callPeer(context.Background(), target, proto.MNodeReplicate, req, &resp)
	// A dataset that rode the frame is the store's to keep, not the cursor's.
	req.Node, req.Rows, req.Manifests = "", nil, nil
	if err != nil {
		n.logf("cluster %s: replicating %q to %s failed: %v", n.id, name, target, err)
		st.due, st.sent = true, 0
		return err
	}
	n.replicated.Add(1)
	st.standby, st.sent = target, req.Seq
	if attached {
		n.manifestSyncs.Add(1)
		st.dataFP, st.dataPos = fp, pos
	}
	return nil
}

// callPeer makes one call on the control link to a configured peer,
// dialing it if need be. It makes no deadline of its own: the link's
// call timeout (twice the suspicion timeout) bounds a call whose ctx
// has none, and get bounds the dial. The request is encoded before the
// call returns, so the caller may reuse it at once.
func (n *Node) callPeer(ctx context.Context, target, method string, req wire.BodyEncoder, resp any) error {
	ps := n.peers[target]
	if ps == nil {
		return fmt.Errorf("cluster: %s: unknown peer %s", method, target)
	}
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		return err
	}
	return rpc.CallCtx(ctx, method, req, resp)
}
