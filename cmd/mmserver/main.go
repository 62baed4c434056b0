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
	var c config
	c.flags().Parse(os.Args[1:])
	if c.cl.id != "" {
		var err error
		if c.cl.peers, err = parsePeers(c.peers); err != nil {
			log.Fatalf("mmserver: %v", err)
		}
	} else if c.peers != "" {
		log.Fatalf("mmserver: -peers requires -node-id")
	}
	if err := run(c.addr, c.data, c.seed, c.sync, c.debugAddr, c.opts, c.cl); err != nil {
		log.Fatalf("mmserver: %v", err)
	}
}

// config is the command line: every flag sets one field, the
// server.Options flags their field of opts. -peers is parsed into
// cl.peers.
type config struct {
	addr, data, sync, debugAddr, peers string
	seed                               int
	opts                               server.Options
	cl                                 clusterConfig
}

// flags defines the command's flags over c's fields; Parse exits on a
// bad or unknown flag.
func (c *config) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("mmserver", flag.ExitOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.StringVar(&c.data, "data", "./mmdata", "database directory")
	fs.IntVar(&c.seed, "seed", 2, "synthetic records to create if the database is empty")
	fs.StringVar(&c.sync, "sync", "group", "WAL durability: always | group | never")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "debug HTTP listen address (metrics, traces, pprof); empty disables")
	fs.IntVar(&c.opts.MaxInflight, "max-inflight", 0, "admission control: concurrent request cap (0: default 1024, negative: disabled)")
	fs.IntVar(&c.opts.QueueDepth, "queue-depth", 0, "admission control: wait-queue bound once the cap is reached (0: default 128)")
	fs.DurationVar(&c.opts.QueueTimeout, "queue-timeout", 0, "admission control: max time a request waits for a slot before being shed (0: default 1s)")
	fs.Float64Var(&c.opts.PerPeerRate, "peer-rate", 0, "per-connection sustained request rate limit in req/s (0: unlimited)")
	fs.IntVar(&c.opts.PerPeerBurst, "peer-burst", 0, "per-connection burst allowance on top of -peer-rate (0: derived from the rate)")
	fs.DurationVar(&c.opts.QoSInterval, "qos-interval", 0, "adaptive QoS control period: per-member bandwidth estimation, CP-net tuning and push-prefetch (0: default 500ms)")
	fs.Int64Var(&c.opts.PrefetchBudget, "prefetch-budget", 0, "per-session byte allowance for QoS push-prefetch (0: default 256KiB, negative: disabled)")
	fs.StringVar(&c.cl.id, "node-id", "", "cluster node id; empty runs a standalone server")
	fs.StringVar(&c.peers, "peers", "", "cluster peers as id=addr,id=addr (requires -node-id); -addr must be reachable by peers and clients, it is advertised in redirects")
	fs.BoolVar(&c.cl.forward, "forward", false, "cluster: relay wrong-node requests to the owner instead of redirecting")
	return fs
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
	// Refuse bad flags before the database is opened or seeded.
	if err := opts.Validate(); err != nil {
		return err
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
