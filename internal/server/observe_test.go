package server

import (
	"context"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// traceSystem is testSystem with every request counted as slow, so the
// trace ring keeps them all and tests can assert on traces without
// manufacturing slowness (the slow log they would all enter is muted).
func traceSystem(t *testing.T) (*Server, string) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Populate(m, "p1", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	slowBar(0)(srv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// TestTracePropagationEndToEnd pins the tentpole guarantee: a trace id
// minted at the client rides the wire frame into the server's context,
// the typed adapter and the room attach their spans to it, and the
// completed trace is queryable by that same id — both in-process and
// over the sys.traces RPC.
func TestTracePropagationEndToEnd(t *testing.T) {
	srv, addr := traceSystem(t)
	c := dial(t, addr, "alice")
	s, _, err := c.Join("trace-room", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}

	const pinned = uint64(0xabcdef01)
	ctx := obs.ContextWithID(context.Background(), pinned)
	if err := s.ChoiceCtx(ctx, "ct", "segmented"); err != nil {
		t.Fatal(err)
	}

	recs := srv.Tracer().Find(pinned)
	if len(recs) != 1 {
		t.Fatalf("Find(%#x) = %d records, want 1", pinned, len(recs))
	}
	rec := recs[0]
	if rec.Method != proto.MChoice {
		t.Fatalf("traced method = %q, want %q", rec.Method, proto.MChoice)
	}
	if rec.Total <= 0 {
		t.Fatalf("traced total = %v", rec.Total)
	}
	spans := map[string]bool{}
	for _, sp := range rec.Spans {
		spans[sp.Name] = true
		if sp.Dur < 0 || sp.Start < 0 {
			t.Fatalf("span %q has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, want := range []string{"decode", "handle", "push"} {
		if !spans[want] {
			t.Fatalf("trace missing %q span; got %+v", want, rec.Spans)
		}
	}

	// The same trace must come back over the wire.
	rpc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	var resp proto.TracesResp
	if err := rpc.CallCtx(context.Background(), proto.MTraces, &proto.TracesReq{ID: pinned}, &resp); err != nil {
		t.Fatal(err)
	}
	infos := resp.Traces
	if len(infos) != 1 || infos[0].ID != pinned || infos[0].Method != proto.MChoice {
		t.Fatalf("sys.traces = %+v", infos)
	}
	if len(infos[0].Spans) != len(rec.Spans) {
		t.Fatalf("RPC spans = %d, in-process = %d", len(infos[0].Spans), len(rec.Spans))
	}
	// Times and durations cross the wire intact.
	if infos[0].Total != rec.Total || !infos[0].Start.Equal(rec.Start) {
		t.Errorf("RPC trace timing = %v at %v, in-process = %v at %v", infos[0].Total, infos[0].Start, rec.Total, rec.Start)
	}
	for i, sp := range rec.Spans {
		if got := infos[0].Spans[i]; got.Name != sp.Name || got.Start != sp.Start || got.Dur != sp.Dur {
			t.Errorf("RPC span %d = %+v, in-process = %+v", i, got, sp)
		}
	}
}

// TestTraceIDMintedWhenUnpinned checks that a plain call (no pinned id)
// still gets traced under a server-visible nonzero id.
func TestTraceIDMintedWhenUnpinned(t *testing.T) {
	srv, addr := traceSystem(t)
	c := dial(t, addr, "bob")
	if _, _, err := c.ListDocuments(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, rec := range srv.Tracer().Recent(0) {
		if rec.Method == proto.MListDocuments {
			found = true
			if rec.ID == 0 {
				t.Fatal("minted trace id is 0")
			}
		}
	}
	if !found {
		t.Fatal("list call never entered the trace ring")
	}
}

// TestErroredRequestAlwaysTraced checks the recorder's other entry
// condition: failures are kept even when fast (with a real threshold).
func TestErroredRequestAlwaysTraced(t *testing.T) {
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slowBar(time.Hour)(srv) // nothing is "slow"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c := dial(t, l.Addr().String(), "carol")
	if _, err := c.GetDocument("no-such-doc"); err == nil {
		t.Fatal("missing document fetch succeeded")
	}
	recs := srv.Tracer().Recent(0)
	if len(recs) == 0 || recs[0].Err == "" {
		t.Fatalf("errored request not in ring: %+v", recs)
	}
}

func TestStatsRPCAndMetricsSnapshot(t *testing.T) {
	srv, addr := traceSystem(t)
	c := dial(t, addr, "alice")
	s, _, err := c.Join("stats-room", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Choice("ct", "segmented"); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms, ok := stats.Methods[proto.MChoice]
	if !ok || ms.Requests != 20 {
		t.Fatalf("choice summary = %+v, %v", ms, ok)
	}
	if ms.P50 <= 0 || ms.P50 > ms.P90 || ms.P90 > ms.P99 || ms.P99 > ms.Max {
		t.Fatalf("percentiles not ordered: %+v", ms)
	}
	if ms.Mean <= 0 {
		t.Fatalf("mean = %v", ms.Mean)
	}
	if stats.Gauges["wire.peers"] < 1 {
		t.Fatalf("wire.peers = %d", stats.Gauges["wire.peers"])
	}
	if stats.Gauges["rooms.live"] != 1 || stats.Gauges["rooms.members"] != 1 {
		t.Fatalf("room gauges = %+v", stats.Gauges)
	}
	if len(stats.Rooms) != 1 || stats.Rooms[0].Name != "stats-room" || stats.Rooms[0].Members != 1 {
		t.Fatalf("rooms = %+v", stats.Rooms)
	}
	if stats.Counters["push.events"] == 0 {
		t.Fatalf("push.events counter missing: %+v", stats.Counters)
	}
	if got := stats.Gauges["wire.proto_version"]; got != wire.ProtoV3 {
		t.Fatalf("wire.proto_version = %d", got)
	}
	// Every request so far fit the frame pool's size class: the join, the
	// twenty choices and the stats call itself each took a frame.
	if gets, misses := stats.Counters["wire.frame_pool_gets"], stats.Counters["wire.frame_pool_misses"]; gets < 22 || misses > gets {
		t.Fatalf("wire.frame_pool_gets = %d, wire.frame_pool_misses = %d", gets, misses)
	}

	// The in-process snapshot behind -debug-addr agrees on structure.
	snap := srv.MetricsSnapshot()
	if snap.Methods[proto.MChoice].Requests < 20 {
		t.Fatalf("MetricsSnapshot choice requests = %+v", snap.Methods[proto.MChoice])
	}
	if snap.Gauges["go.goroutines"] <= 0 {
		t.Fatal("go.goroutines gauge missing")
	}
}

// sys.stats reports the reply-frame pool beside the request-frame pool:
// a client in this process that fetches an image reads it into a pooled
// frame, and a warm pool serves the next fetch of the same size.
func TestStatsReportReplyPool(t *testing.T) {
	_, addr, rec := testSystemOpts(t, Options{})
	c := dial(t, addr, "alice")
	for range 3 {
		if _, _, err := c.GetImage(rec.CTID); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	gets, ok := stats.Counters["wire.reply_pool_gets"]
	misses, ok2 := stats.Counters["wire.reply_pool_misses"]
	if !ok || !ok2 || gets < 3 || misses > gets {
		t.Fatalf("wire.reply_pool_gets = %d (%v), wire.reply_pool_misses = %d (%v)", gets, ok, misses, ok2)
	}
}

// designCounters reads DESIGN.md's table of counters ("### Counters",
// §7): counter name → owning package.
func designCounters(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Counters\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### Counters\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	row := regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)` \\| `(internal/[a-z]+)` \\|")
	out := make(map[string]string)
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		out[m[1]] = m[2]
	}
	if len(out) == 0 {
		t.Fatal("DESIGN.md's counter table has no rows")
	}
	return out
}

// TestCountersAreTheDesignTable: a fresh server reports exactly the
// counters DESIGN.md's table lists (less the cluster node's), each at
// zero — every handle is made when the server is built, so no counter
// appears only once something has counted.
func TestCountersAreTheDesignTable(t *testing.T) {
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	got := srv.MetricsSnapshot().Counters
	want := designCounters(t)
	for name, owner := range want {
		if _, ok := got[name]; !ok && owner != "internal/cluster" {
			t.Errorf("DESIGN.md lists %s (%s); a fresh server does not report it", name, owner)
		}
	}
	for name, v := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("a fresh server reports %s; DESIGN.md's counter table does not list it", name)
		}
		if v != 0 && !strings.Contains(name, "pool_") { // the frame and codec pools are the process's
			t.Errorf("a fresh server's %s = %d, want 0", name, v)
		}
	}
}
