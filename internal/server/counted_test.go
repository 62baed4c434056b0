package server

import (
	"context"
	"testing"

	"mmconf/internal/proto"
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
