package cluster

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/netsim"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

// This file is the in-process multi-node harness: N cluster nodes, each
// with its own populated store, its own netsim fault domain (listener +
// node-link dials), plus a separate client fault domain. Everything
// runs in one process under the race detector; partitions, crashes and
// drains are injected per node. benchmark/ builds its cluster_choice
// workload on it too, so it carries no testing.T — errors return normally.

// HarnessOptions configures NewHarness.
type HarnessOptions struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Dir is the base directory for per-node stores (required — tests
	// pass t.TempDir()); node i stores under Dir/<node-id>.
	Dir string
	// Seed feeds workload population identically on every node, so any
	// node can serve the same documents. It is also the seed tests
	// should use for churn scheduling, keeping runs reproducible.
	Seed int64
	// Unseeded lists node ids (n1..nN) whose stores start empty: no
	// workload population, an empty CAS. Such a node converges purely
	// through dataset sync — the digest-replication path — instead of
	// relying on an identically seeded database.
	Unseeded []string
	// Forward turns on transparent cross-node relaying (instead of
	// redirects) on every node.
	Forward bool
	// HeartbeatInterval and SuspectAfter set cluster timings (defaults
	// 40ms / 160ms — fast enough that failover tests finish in
	// milliseconds, slow enough for the race detector's overhead).
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// Server is the base server configuration; the cluster hook fields
	// must be nil (the node installs its own).
	Server server.Options
	// Logf, when set, receives node lifecycle diagnostics from every
	// node, prefixed with its id (pass t.Logf).
	Logf func(format string, args ...any)
}

func (o *HarnessOptions) unseeded(id string) bool {
	for _, u := range o.Unseeded {
		if u == id {
			return true
		}
	}
	return false
}

// HarnessNode is one cluster member under harness control.
type HarnessNode struct {
	ID   string
	Addr string
	// Faults is this node's fault domain: its listener's inbound
	// connections and its outbound node-link dials. Partitioning it
	// isolates the node from peers and clients alike.
	Faults *netsim.Faults
	Node   *Node

	h        *Harness
	listener net.Listener
	db       *store.DB
	media    *mediadb.MediaDB

	// Unseeded records that this node's store started empty (see
	// HarnessOptions.Unseeded).
	Unseeded bool

	mu          sync.Mutex
	killed      bool
	partitioned bool
}

// Harness is an in-process cluster of Nodes over netsim transports.
type Harness struct {
	Nodes []*HarnessNode
	// ClientFaults is the fault domain for test clients: dial node
	// addresses through ClientFaults.DialContext (it is shaped for
	// client.AddrDialFunc) and client-side faults stay independent of
	// node-side ones.
	ClientFaults *netsim.Faults
	// Record describes the workload population (identical on every
	// node): document ids, media object ids.
	Record *workload.PopulatedRecord

	opts HarnessOptions
	wg   sync.WaitGroup
}

// NewHarness builds, populates and starts an n-node cluster. Callers
// must Close it.
func NewHarness(o HarnessOptions) (*Harness, error) {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("cluster: harness needs a base directory")
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 40 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 4 * o.HeartbeatInterval
	}
	h := &Harness{ClientFaults: netsim.NewFaults(), opts: o}

	// Listeners first: every node's config needs every address.
	addrs := make([]string, o.Nodes)
	ids := make([]string, o.Nodes)
	listeners := make([]net.Listener, o.Nodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
		ids[i] = fmt.Sprintf("n%d", i+1)
	}

	for i := 0; i < o.Nodes; i++ {
		hn, err := h.startNode(ids, addrs, listeners, i)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			h.Close()
			return nil, err
		}
		h.Nodes = append(h.Nodes, hn)
	}
	return h, nil
}

// startNode opens node i's store, populates it, and starts its cluster
// node behind a fault-wrapped listener.
func (h *Harness) startNode(ids, addrs []string, listeners []net.Listener, i int) (*HarnessNode, error) {
	o := h.opts
	db, err := store.Open(filepath.Join(o.Dir, ids[i]), store.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, err
	}
	m, err := mediadb.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	if !o.unseeded(ids[i]) {
		rec, err := workload.Populate(m, "p1", o.Seed)
		if err != nil {
			db.Close()
			return nil, err
		}
		if h.Record == nil {
			h.Record = rec
		}
	}
	faults := netsim.NewFaults()
	peers := make(map[string]string, len(ids)-1)
	for j, id := range ids {
		if j != i {
			peers[id] = addrs[j]
		}
	}
	cfg := Config{
		ID:                ids[i],
		Addr:              addrs[i],
		Peers:             peers,
		Dial:              faults.DialContext,
		Forward:           o.Forward,
		HeartbeatInterval: o.HeartbeatInterval,
		SuspectAfter:      o.SuspectAfter,
	}
	if o.Logf != nil {
		cfg.Logf = o.Logf
	}
	node, err := New(m, o.Server, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	hn := &HarnessNode{
		ID: ids[i], Addr: addrs[i], Faults: faults, Node: node,
		h: h, listener: faults.Listener(listeners[i]), db: db, media: m,
		Unseeded: o.unseeded(ids[i]),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = node.Serve(hn.listener)
	}()
	return hn, nil
}

// Addrs lists every node's client address in node order — the endpoint
// set for client.NewOverResolver.
func (h *Harness) Addrs() []string {
	addrs := make([]string, len(h.Nodes))
	for i, hn := range h.Nodes {
		addrs[i] = hn.Addr
	}
	return addrs
}

// ByID returns the harness node with the given cluster id.
func (h *Harness) ByID(id string) *HarnessNode {
	for _, hn := range h.Nodes {
		if hn.ID == id {
			return hn
		}
	}
	return nil
}

// aliveIDs is the set of nodes neither killed nor partitioned — the
// membership every connected node should converge on.
func (h *Harness) aliveIDs() []string {
	var ids []string
	for _, hn := range h.Nodes {
		hn.mu.Lock()
		ok := !hn.killed && !hn.partitioned
		hn.mu.Unlock()
		if ok {
			ids = append(ids, hn.ID)
		}
	}
	return ids
}

// Owner computes which currently alive node owns room — where the
// cluster will serve it once views converge.
func (h *Harness) Owner(room string) *HarnessNode {
	return h.ByID(NewPlacement(h.aliveIDs()).Owner(room))
}

// RoomOwnedBy derives a room name (from prefix) that the full cluster
// places on the given node — how tests pin a scenario to a node without
// hardcoding hash outcomes.
func (h *Harness) RoomOwnedBy(id, prefix string) string {
	all := make([]string, len(h.Nodes))
	for i, hn := range h.Nodes {
		all[i] = hn.ID
	}
	place := NewPlacement(all)
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if place.Owner(name) == id {
			return name
		}
	}
}

// WaitConverged blocks until every alive node's live view equals the
// alive set (and it holds quorum iff the alive set is a majority), or
// the timeout passes.
func (h *Harness) WaitConverged(timeout time.Duration) error {
	want := h.aliveIDs()
	majority := 2*len(want) > len(h.Nodes)
	deadline := time.Now().Add(timeout)
	for {
		if h.converged(want, majority) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: views did not converge on {%v} within %v", want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *Harness) converged(want []string, majority bool) bool {
	for _, id := range want {
		hn := h.ByID(id)
		got := hn.Node.Live()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		if hn.Node.HasQuorum() != majority {
			return false
		}
	}
	return true
}

// Kill crashes the node: its listener closes, every connection in its
// fault domain resets mid-stream, and the node shuts down. Clients and
// peers observe a dead TCP transport, exactly as on a machine failure.
func (hn *HarnessNode) Kill() {
	hn.mu.Lock()
	if hn.killed {
		hn.mu.Unlock()
		return
	}
	hn.killed = true
	hn.mu.Unlock()
	hn.listener.Close()
	hn.Faults.KillAll()
	// Teardown runs off the test's critical path: the interesting part
	// of a kill is what the survivors do, not the corpse's cleanup.
	hn.h.wg.Add(1)
	go func() {
		defer hn.h.wg.Done()
		_ = hn.Node.Close()
		hn.db.Close()
	}()
}

// Drain takes the node out of service gracefully: rooms hand off to
// their post-drain owners, peers learn of the departure, members are
// told to reconnect, and only then does the node stop.
func (hn *HarnessNode) Drain(ctx context.Context) error {
	hn.mu.Lock()
	if hn.killed {
		hn.mu.Unlock()
		return fmt.Errorf("cluster: node %s already stopped", hn.ID)
	}
	hn.killed = true
	hn.mu.Unlock()
	err := hn.Node.Drain(ctx)
	hn.listener.Close()
	hn.db.Close()
	return err
}

// Partition cuts the node off: everything in its fault domain — peer
// links in and out, client connections — black-holes until Heal.
func (hn *HarnessNode) Partition() {
	hn.mu.Lock()
	hn.partitioned = true
	hn.mu.Unlock()
	hn.Faults.Partition()
}

// Heal ends the node's partition.
func (hn *HarnessNode) Heal() {
	hn.mu.Lock()
	hn.partitioned = false
	hn.mu.Unlock()
	hn.Faults.Heal()
}

// Close tears the whole harness down.
func (h *Harness) Close() {
	for _, hn := range h.Nodes {
		hn.mu.Lock()
		stopped := hn.killed
		hn.killed = true
		hn.mu.Unlock()
		if stopped {
			continue
		}
		hn.Faults.Heal()
		hn.listener.Close()
		_ = hn.Node.Close()
		hn.db.Close()
	}
	h.wg.Wait()
}
