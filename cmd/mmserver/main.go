// Command mmserver runs the interaction server of the conferencing
// system: it opens (or initializes) the multimedia database and serves
// clients over TCP.
//
// Usage:
//
//	mmserver -addr :7070 -data ./mmdata -seed 3 -debug-addr 127.0.0.1:7071
//
// -seed N populates the database with N synthetic medical records when it
// is empty, so a fresh deployment has material to conference over.
// -node-id and -peers run the server as one member of a room-sharded
// cluster (see DESIGN.md §12):
//
//	mmserver -addr host1:7070 -node-id n1 -peers n2=host2:7070,n3=host3:7070
//
// Every node needs the same -peers view of the others and (for exact
// failover replay) an equivalently seeded database. -forward relays
// wrong-node requests to the room's owner instead of redirecting.
// -debug-addr starts an HTTP listener serving /debug/metrics (JSON
// snapshot of per-method latency percentiles, counters and gauges),
// /debug/traces (recent slow/errored request traces, ?id= filters) and
// /debug/pprof. Leave it empty (the default) to disable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mmconf/internal/cluster"
	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	data := flag.String("data", "./mmdata", "database directory")
	seed := flag.Int("seed", 2, "synthetic records to create if the database is empty")
	sync := flag.String("sync", "group", "WAL durability: always | group | never")
	debugAddr := flag.String("debug-addr", "", "debug HTTP listen address (metrics, traces, pprof); empty disables")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrent request cap (0: default 1024, negative: disabled)")
	queueDepth := flag.Int("queue-depth", 0, "admission control: wait-queue bound once the cap is reached (0: default 128)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission control: max time a request waits for a slot before being shed (0: default 1s, negative: wait as long as the request allows)")
	peerRate := flag.Float64("peer-rate", 0, "per-connection sustained request rate limit in req/s (0: unlimited)")
	peerBurst := flag.Int("peer-burst", 0, "per-connection burst allowance on top of -peer-rate (0: derived from the rate)")
	pushBudget := flag.Int64("push-budget", 0, "per-member event-queue byte budget; slow consumers over it get a Resync hint (0: default 1MiB, negative: unbounded)")
	qosInterval := flag.Duration("qos-interval", 0, "adaptive QoS control period: per-member bandwidth estimation, CP-net tuning and push-prefetch (0: default 500ms, negative: disabled)")
	prefetchBudget := flag.Int64("prefetch-budget", 0, "per-session byte allowance for QoS push-prefetch (0: default 256KiB, negative: disabled)")
	nodeID := flag.String("node-id", "", "cluster node id; empty runs a standalone server")
	peers := flag.String("peers", "", "cluster peers as id=addr,id=addr (requires -node-id); -addr must be reachable by peers and clients, it is advertised in redirects")
	forward := flag.Bool("forward", false, "cluster: relay wrong-node requests to the owner instead of redirecting (protocol-v2 clients)")
	flag.Parse()

	opts := server.Options{
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		QueueTimeout:     *queueTimeout,
		PerPeerRate:      *peerRate,
		PerPeerBurst:     *peerBurst,
		MemberPushBudget: *pushBudget,
		QoSInterval:      *qosInterval,
		PrefetchBudget:   *prefetchBudget,
	}
	cl := clusterConfig{id: *nodeID, forward: *forward}
	if *nodeID != "" {
		var err error
		if cl.peers, err = parsePeers(*peers); err != nil {
			log.Fatalf("mmserver: %v", err)
		}
	} else if *peers != "" {
		log.Fatalf("mmserver: -peers requires -node-id")
	}
	if err := run(*addr, *data, *seed, *sync, *debugAddr, opts, cl); err != nil {
		log.Fatalf("mmserver: %v", err)
	}
}

// clusterConfig is the parsed cluster flag set; a zero id means
// standalone.
type clusterConfig struct {
	id      string
	peers   map[string]string
	forward bool
}

// parsePeers parses "id=addr,id=addr".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=addr)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q in -peers", id)
		}
		peers[id] = addr
	}
	return peers, nil
}

func run(addr, data string, seed int, syncMode, debugAddr string, opts server.Options, cl clusterConfig) error {
	var mode store.SyncMode
	switch syncMode {
	case "always":
		mode = store.SyncAlways
	case "group":
		mode = store.SyncGroup
	case "never":
		mode = store.SyncNever
	default:
		return fmt.Errorf("unknown sync mode %q", syncMode)
	}
	db, err := store.Open(data, store.Options{Sync: mode})
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		return err
	}
	ids, _, err := m.ListDocuments()
	if err != nil {
		return err
	}
	if len(ids) == 0 && seed > 0 {
		log.Printf("empty database: populating %d synthetic medical records", seed)
		for i := 0; i < seed; i++ {
			id := fmt.Sprintf("patient-%03d", i+1)
			if _, err := workload.Populate(m, id, int64(i+1)); err != nil {
				return fmt.Errorf("populating %s: %w", id, err)
			}
			log.Printf("  stored %s", id)
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
	}

	var srv *server.Server
	var node *cluster.Node
	if cl.id != "" {
		node, err = cluster.New(m, opts, cluster.Config{
			ID:      cl.id,
			Addr:    addr,
			Peers:   cl.peers,
			Forward: cl.forward,
		})
		if err != nil {
			return err
		}
		srv = node.Server()
	} else {
		srv, err = server.NewWith(m, opts)
		if err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if node != nil {
		log.Printf("cluster node %s listening on %s (peers: %d, forward: %v, data: %s)",
			cl.id, l.Addr(), len(cl.peers), cl.forward, data)
	} else {
		log.Printf("interaction server listening on %s (data: %s)", l.Addr(), data)
	}

	if debugAddr != "" {
		dl, err := net.Listen("tcp", debugAddr)
		if err != nil {
			l.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dl.Close()
		mux := obs.NewDebugMux(func() any { return srv.MetricsSnapshot() }, srv.Tracer())
		go func() {
			if err := http.Serve(dl, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("debug server stopped: %v", err)
			}
		}()
		log.Printf("debug server listening on http://%s/debug/metrics (traces, pprof)", dl.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if node != nil {
			// Cluster drain: rooms hand off to their post-drain owners
			// first, so members reconnect and resume elsewhere.
			log.Printf("signal received: draining (handing rooms off to peers, 10s budget)")
			if err := node.Drain(sctx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
		} else {
			log.Printf("signal received: draining (announcing shutdown to rooms, 10s budget)")
			if err := srv.Shutdown(sctx); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
		}
		return <-errCh // Serve returns once its listener closed
	}
}
