package cluster

import (
	"context"
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
// pushes relay back to the right client.
type ingressSet struct {
	mu    sync.Mutex
	links map[string]*ingressLink
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
// verbatim. Owner-side handler errors relay as RemoteError (typed
// errors like redirects survive — the strings cross unmodified);
// transport failures surface as cluster-unavailable, and the dead link
// is dropped so the next request redials.
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
			// message through untouched.
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
		lk := set.links[owner]
		if lk == nil {
			lk = &ingressLink{ready: make(chan struct{})}
			set.links[owner] = lk
			set.mu.Unlock()
			lk.rpc, lk.err = n.dialIngress(ctx, p, owner)
			close(lk.ready)
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

// ingressLink is one lazily dialed relay connection; ready closes once
// the dial (by whichever request got there first) settles.
type ingressLink struct {
	ready chan struct{}
	rpc   *wire.Client
	err   error
}

func newIngressSet() *ingressSet {
	return &ingressSet{links: make(map[string]*ingressLink)}
}

// closeAll tears down every relay link (the origin client is gone).
func (s *ingressSet) closeAll() {
	s.mu.Lock()
	links := s.links
	s.links = make(map[string]*ingressLink)
	s.mu.Unlock()
	for _, lk := range links {
		go func(lk *ingressLink) {
			<-lk.ready
			if lk.rpc != nil {
				lk.rpc.Close()
			}
		}(lk)
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
		// The body is valid only during this call, and PushRaw keeps
		// the bytes until the origin's writer has sent them.
		_ = p.PushRaw(method, wire.EncBinary, append([]byte(nil), body.Data...))
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

// repState is the owner-side replication cursor for one room.
type repState struct {
	// pending: the log advanced past sent (the tap said so), or the last
	// send failed; the next wake-up of replLoop flushes the room.
	pending bool
	// standby is the node the last frame landed on and sent the Seq that
	// frame carried: the next flush ships LogSince(sent). sent 0 ships
	// the whole log and forces the dataset with it — a first flush, a
	// failed send, a standby or placement change.
	standby string
	sent    uint64
	// dataFP/dataPos are the dataset half of the cursor: the fingerprint
	// of the dataset the standby last saw, and the store position read
	// before the last export that was shipped or found identical to it.
	// A matching position skips the export; a matching fingerprint skips
	// the attach (sync.go).
	dataFP  [32]byte
	dataPos uint64
	// frame is the replication frame incremental flushes read the log
	// into, kept for its event array (replicate).
	frame *proto.ReplicateReq
}

// repStateLocked returns the room's cursor, creating it. Callers hold
// n.repMu.
func (n *Node) repStateLocked(roomName string) *repState {
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
	n.repStateLocked(roomName).pending = true
	n.repMu.Unlock()
	select {
	case n.repWake <- struct{}{}:
	default: // a wake-up is already due, and it will see the mark
	}
}

// markDirty makes the room's next flush a full one: the whole log, and
// the dataset whether or not it changed.
func (n *Node) markDirty(roomName string) {
	n.repMu.Lock()
	st := n.repStateLocked(roomName)
	st.pending, st.sent = true, 0
	n.repMu.Unlock()
}

// markAllDirty forces a full resend of every replicated room — the
// placement changed, so standbys may have too.
func (n *Node) markAllDirty() {
	n.repMu.Lock()
	for _, st := range n.rep {
		st.pending, st.sent = true, 0
	}
	n.repMu.Unlock()
}

// replLoop streams the node's room event logs to each room's standby. A
// tap wakes it at once; the heartbeat tick retries what a failed send or
// a lost quorum left pending. Either way it walks the cursors once and
// flushes the rooms that are marked.
func (n *Node) replLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	var names []string
	for {
		select {
		case <-n.closed:
			return
		case <-n.repWake:
		case <-t.C:
		}
		names = names[:0]
		n.repMu.Lock()
		for name, st := range n.rep {
			if st.pending {
				st.pending = false
				names = append(names, name)
			}
		}
		n.repMu.Unlock()
		for _, name := range names {
			n.flushRoom(name)
		}
	}
}

// flushRoom sends the room's standby what it lacks.
func (n *Node) flushRoom(name string) {
	place, quorum := n.view()
	if !quorum {
		// A minority node must not replicate: its log may be the stale
		// side of a healed split.
		n.markDirty(name)
		return
	}
	standby := place.Standby(name)
	if standby == "" || standby == n.id {
		return
	}
	n.repMu.Lock()
	st := n.repStateLocked(name)
	n.repMu.Unlock()
	n.replicate(name, standby, st, n.position())
}

// replicate sends target one node.replicate frame for the room: the
// log past since, read from the room's own log with the marks it was
// read under, and the room's dataset unless the cursor shows
// target already holds it (attachDataset). It is the one way a room
// leaves this node, for a flush and a hand-off alike.
//
// A flush passes the room's cursor st and pos, the store position read
// before the call. since is st.sent (0 when target is not the cursor's
// standby), and the cursor moves only when the frame landed, so a lost
// frame is read again, not remembered; a failed send marks the room for
// a full resend. An incremental flush reads the log into the frame the
// cursor keeps (callPeer has encoded it by the time it returns), so it
// allocates nothing for the events once that frame has grown to a
// flush's size. A hand-off (drain, reconcile) passes no cursor: since
// is 0, which ships the whole log and forces the dataset. A whole-log
// read, with or without a cursor, goes into a fresh frame that is not
// kept.
//
// It returns the send's error: nil when the frame landed, or when the
// room is gone and there is nothing to send.
func (n *Node) replicate(name, target string, st *repState, pos uint64) error {
	var since uint64
	var req *proto.ReplicateReq
	if st != nil {
		n.repMu.Lock()
		if st.standby != target {
			st.sent = 0
		}
		since = st.sent
		if since != 0 {
			// Taken, not shared: a flush of the same room running beside
			// this one reads into a fresh frame instead.
			req, st.frame = st.frame, nil
		}
		n.repMu.Unlock()
	}
	if req == nil {
		req = new(proto.ReplicateReq)
	}
	if !n.srv.SnapshotRoomInto(req, name, since) {
		// The room is gone (evicted or closed): nothing to stream.
		if st != nil {
			n.repMu.Lock()
			delete(n.rep, name)
			n.repMu.Unlock()
		}
		return nil
	}
	fp, attached := n.attachDataset(req, st, since == 0, pos)
	var resp proto.ReplicateResp
	err := n.callPeer(context.Background(), target, proto.MNodeReplicate, req, &resp)
	if err != nil {
		n.logf("cluster %s: replicating %q to %s failed: %v", n.id, name, target, err)
		if st != nil {
			n.markDirty(name)
		}
	} else {
		n.replicated.Add(1)
		if attached {
			n.manifestSyncs.Add(1)
		}
	}
	if st == nil {
		return err
	}
	n.repMu.Lock()
	if err == nil {
		st.standby = target
		if st.sent == since { // else marked dirty meanwhile: stay at 0
			st.sent = req.Seq
		}
		if attached {
			st.dataFP, st.dataPos = fp, pos
		}
	}
	if since != 0 {
		// Keep the event array for the next flush; the dataset, if one
		// rode this frame, is the store's to keep, not the cursor's.
		req.Node, req.Rows, req.Manifests = "", nil, nil
		st.frame = req
	}
	n.repMu.Unlock()
	return err
}

// callPeer makes one call on the control link to a configured peer,
// dialing it if need be. It makes no deadline of its own: the link's
// call timeout (twice the suspicion timeout) bounds a call whose ctx
// has none, and get bounds the dial. The request is encoded before the
// call returns, so the caller may reuse it at once.
func (n *Node) callPeer(ctx context.Context, target, method string, req wire.BodyEncoder, resp any) error {
	n.mu.Lock()
	ps := n.peers[target]
	n.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("cluster: %s: unknown peer %s", method, target)
	}
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		return err
	}
	return rpc.CallCtx(ctx, method, req, resp)
}
