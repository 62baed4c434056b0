package main

import (
	"context"
	"net"
	"os"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/cluster"
	"mmconf/internal/mediadb"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// tmpRoot holds every store the benchmark builds; it lives under the
// working directory so a run never writes outside its checkout.
const tmpRoot = ".tmp"

// sut is the system under test, hosted in the benchmark's own process:
// either one interaction server on loopback TCP over a SyncGroup store
// in a temp dir (mmserver's defaults), or a 3-node cluster harness.
type sut struct {
	dir string

	db    *store.DB
	media *mediadb.MediaDB
	srv   *server.Server
	addr  string

	harness *cluster.Harness

	closers []func()
}

// newServerSUT opens a fresh store, lets populate fill it, checkpoints
// (as mmserver does after seeding) and serves it on a loopback port.
// cacheBytes 0 keeps the server's default object cache.
func newServerSUT(name string, cacheBytes int64, populate func(*mediadb.MediaDB) error) (*sut, error) {
	dir, err := makeTemp(name)
	if err != nil {
		return nil, err
	}
	s := &sut{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if s.db, err = store.Open(dir, store.Options{Sync: store.SyncGroup}); err != nil {
		return nil, err
	}
	if s.media, err = mediadb.Open(s.db); err != nil {
		return nil, err
	}
	if err := populate(s.media); err != nil {
		return nil, err
	}
	if err := s.db.Checkpoint(); err != nil {
		return nil, err
	}
	if s.srv, err = server.NewWith(s.media, server.Options{CacheBytes: cacheBytes}); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr().String()
	go func() { _ = s.srv.Serve(l) }() // returns when close() shuts the server down
	ok = true
	return s, nil
}

// clusterSuspectAfter replaces the harness's test-tuned 160 ms: with
// both cores saturated by the drivers a heartbeat can be late by more
// than that, the node is suspected, quorum is lost for an instant and a
// request is refused (seen twice in 600k operations). The heartbeat
// itself, which paces replication and dataset sync, stays at the
// harness default of 40 ms.
const clusterSuspectAfter = 2 * time.Second

// newClusterSUT starts the 3-node forwarding harness (each node
// populates record p1 from seed) and waits for the membership views to
// converge.
func newClusterSUT(name string, seed int64) (*sut, error) {
	dir, err := makeTemp(name)
	if err != nil {
		return nil, err
	}
	s := &sut{dir: dir}
	s.harness, err = cluster.NewHarness(cluster.HarnessOptions{
		Nodes: 3, Dir: dir, Seed: seed, Forward: true, SuspectAfter: clusterSuspectAfter,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.harness.WaitConverged(10 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func makeTemp(name string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, name+"-")
}

// servers lists the interaction servers of the SUT (one, or one per
// cluster node).
func (s *sut) servers() []*server.Server {
	if s.harness == nil {
		return []*server.Server{s.srv}
	}
	out := make([]*server.Server, len(s.harness.Nodes))
	for i, hn := range s.harness.Nodes {
		out[i] = hn.Node.Server()
	}
	return out
}

// connWrapper decorates a dialed connection (nil: leave it as is).
type connWrapper func(net.Conn) net.Conn

// counted makes dial's connections byte-counted, then wrapped.
func counted(dial client.AddrDialFunc, wrap connWrapper) client.AddrDialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		conn = countingConn{conn}
		if wrap != nil {
			conn = wrap(conn)
		}
		return conn, nil
	}
}

// dial connects a conferencing client to the single server.
func (s *sut) dial(user string, wrap connWrapper) (*client.Client, error) {
	dial := counted(client.NetDial, wrap)
	c, err := client.NewOverDialer(func(ctx context.Context) (net.Conn, error) { return dial(ctx, s.addr) }, user, client.Options{})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { c.Close() })
	return c, nil
}

// dialNode connects a cluster-aware client that knows only the named
// node, through the harness's client fault domain (no faults injected),
// so which node relays its requests is fixed by the scenario.
func (s *sut) dialNode(user, nodeID string, wrap connWrapper) (*client.Client, error) {
	hn := s.harness.ByID(nodeID)
	c, err := client.NewOverResolver(counted(s.harness.ClientFaults.DialContext, wrap), []string{hn.Addr}, user, client.Options{})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { c.Close() })
	return c, nil
}

// dialRaw opens a bare wire connection to the single server, for the
// one RPC the client library does not wrap (db.putImageTexts).
func (s *sut) dialRaw(wrap connWrapper) (*wire.Client, error) {
	conn, err := counted(client.NetDial, wrap)(context.Background(), s.addr)
	if err != nil {
		return nil, err
	}
	c := wire.NewClient(conn)
	s.closers = append(s.closers, func() { c.Close() })
	return c, nil
}

// counters reads every cumulative counter the program exports that a
// per-layer metric is derived from, summed over cluster nodes.
func (s *sut) counters() map[string]float64 {
	out := make(map[string]float64)
	for _, srv := range s.servers() {
		for k, v := range srv.Stats().Counters() {
			out[k] += float64(v)
		}
	}
	gets, misses := wire.PoolStats()
	out["wire.pool_gets"], out["wire.pool_misses"] = float64(gets), float64(misses)
	if s.harness == nil {
		bs, _ := s.db.BlobStats()
		out["blob.gets"] = float64(bs.Gets)
		appends, syncs := s.db.WALStats()
		out["wal.appends"], out["wal.syncs"] = float64(appends), float64(syncs)
		return out
	}
	for _, hn := range s.harness.Nodes {
		m := hn.Node.Metrics()
		out["cluster.redirects"] += float64(m.Redirects)
		out["cluster.forwards"] += float64(m.Forwards)
		out["cluster.forward_errors"] += float64(m.ForwardErrors)
		out["cluster.replicated"] += float64(m.Replicated)
		out["cluster.manifest_syncs"] += float64(m.ManifestSyncs)
		out["cluster.sync_chunk_bytes"] += float64(m.SyncChunkBytesPulled)
	}
	return out
}

// methodStats returns the server-side handle-time summary of one RPC
// (for a cluster: on the node that served it most).
func (s *sut) methodStats(method string) wire.MethodStats {
	var best wire.MethodStats
	for _, srv := range s.servers() {
		if ms := srv.Stats().Method(method); ms.Requests > best.Requests {
			best = ms
		}
	}
	return best
}

// close stops clients, then servers, then removes the store.
func (s *sut) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	if s.harness != nil {
		s.harness.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close() // drain budget expiry is not a benchmark failure
	}
	if s.db != nil {
		_ = s.db.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}
