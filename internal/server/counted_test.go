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
// admission-enabled server. Measured 40, client and server together (48
// while every request composed its six interceptors anew and started a
// goroutine of its own); the gob stack this protocol replaced took 581.
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
	if got := testing.AllocsPerRun(500, call); got > 40 {
		t.Errorf("%v allocations per ListDocuments round trip, client and server together, want at most 40", got)
	}
}
