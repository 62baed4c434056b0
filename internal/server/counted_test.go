package server

import (
	"context"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/wire"
)

// TestListDocumentsRoundTripAllocations pins what the smallest RPC costs
// the process end to end — client encode, both frame reads, admission,
// the typed handler, the response's strings — over loopback against an
// admission-enabled server. Measured 12, client and server together,
// since the server reads a request into a pooled frame and decodes it
// with a pooled decoder into the typed adapter's pooled value, and the
// client decodes the reply with a pooled decoder too (16 while each
// request took a fresh frame, decoder and value and each reply a fresh
// decoder, once the request worker kept its wire.Request from request to
// request and a flush's segment list belonged to the writer; 19 with a
// wire.Request per request and a segment-list header per flush on each
// side; 34 before one wire.Request carried the request's trace, trace id
// and deadline, spans were values, the client read a frame where it lies
// in its reader and reused reply channels; 36 through the interceptor
// chain, which made a token bucket and an admission-span closure per
// request; 48 while every request composed its six interceptors anew and
// started a goroutine of its own); the gob stack this protocol replaced
// took 581.
func TestListDocumentsRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	_, addr, _ := testSystemOpts(t, Options{MaxInflight: 1024, PerPeerRate: 1e9})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	call := func() {
		var resp proto.ListDocumentsResp
		if err := c.CallCtx(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.IDs) != 1 || resp.IDs[0] != "p1" {
			t.Fatalf("ListDocuments = %v", resp.IDs)
		}
	}
	for i := 0; i < 100; i++ {
		call() // fill the codec scratch pools and the writers' buffers
	}
	got := testing.AllocsPerRun(500, call)
	t.Logf("%v allocations per round trip", got)
	if got > 12 {
		t.Errorf("%v allocations per ListDocuments round trip, client and server together, want at most 12", got)
	}
}

// TestSessionsLookupAllocatesNothing: a room request on a connection that
// has its membership table finds it without building another (a table
// and its map per request while sessionsOf built one for MetaSetDefault
// to discard).
func TestSessionsLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	peers := make(chan *wire.Peer, 1)
	_, dial := stepSystem(t, Options{}, map[string]wire.Handler{
		"peer": func(_ context.Context, p *wire.Peer, _ []byte) (any, error) {
			peers <- p
			return nil, nil
		},
	})
	if err := call(context.Background(), dial(), "peer"); err != nil {
		t.Fatal(err)
	}
	p := <-peers
	first := sessionsOf(p)
	got := testing.AllocsPerRun(100, func() {
		if sessionsOf(p) != first {
			t.Fatal("sessionsOf returned a second table")
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per sessionsOf on a connection that has its table, want 0", got)
	}
}

// TestQoSTickAllocatesNothing: a control tick over members that hold no
// media buffer and whose level does not change allocates nothing (one
// list of the members per tick, every 500 ms on every server, while the
// loop built it anew each time). The bands put any measured rate in
// high, the level a member starts at, so no tick re-pins one.
func TestQoSTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	srv, addr, _ := testSystemOpts(t, Options{QoSInterval: time.Hour}, func(s *Server) {
		s.qos.bands = qos.Bands{LowMedium: 1, MediumHigh: 2, Hysteresis: 0.25}
	})
	for _, user := range []string{"alice", "bob", "carol"} {
		c, err := client.Dial(addr, user)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, _, err := c.Join("consult", "p1", 0); err != nil {
			t.Fatal(err)
		}
	}
	srv.qos.tick() // the loop's own ticker waits an hour: these ticks are the only ones
	got := testing.AllocsPerRun(100, srv.qos.tick)
	if got != 0 {
		t.Errorf("%v allocations per QoS tick over three idle unbuffered members, want 0", got)
	}
	g := map[string]int64{}
	srv.qos.addGauges(g)
	if g["qos.clients"] != 3 || g["qos.level_high"] != 3 {
		t.Errorf("gauges %v, want three members, all high", g)
	}
	if n := srv.stats.Counter(CounterQoSTuneChanges); n != 0 {
		t.Errorf("%d tune changes, want none", n)
	}
}
