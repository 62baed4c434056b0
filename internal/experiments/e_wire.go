package experiments

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// E14Wire measures the wire codec's cost on the two RPC shapes that
// dominate a conference: the small control-plane call (ListDocuments —
// the E12 admission path) and the bulk media fetch (GetCmp, whose
// payload rides the zero-copy span path from the blob store to writev).
// It reports mean latency, server->client wire bytes per op (from the
// writer's byte counter), and client-side heap allocations per op.
// EXPERIMENTS.md keeps the PR 7 table that set these numbers beside gob's;
// internal/server's TestListDocumentsRoundTripAllocations pins the first.
func E14Wire(workdir string) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "wire protocol v2: codec cost on the RPC hot path",
		Columns: []string{"rpc", "mean", "wire-B/op", "client-allocs/op"},
	}

	db, err := store.Open(workdir+"/e14", store.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		return nil, err
	}
	rec, err := workload.Populate(m, "p1", 1)
	if err != nil {
		return nil, err
	}
	srv := server.New(m)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)

	const (
		warmup = 50
		ops    = 400
	)
	ctx := context.Background()
	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	calls := []struct {
		name string
		do   func() error
	}{
		{"ListDocuments", func() error {
			var resp proto.ListDocumentsResp
			return c.CallCtx(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp)
		}},
		{"GetCmp", func() error {
			var resp proto.GetCmpResp
			return c.CallCtx(ctx, proto.MGetCmp, &proto.GetCmpReq{ID: rec.CmpID, MaxLayers: 2}, &resp)
		}},
	}
	for _, call := range calls {
		for i := 0; i < warmup; i++ {
			if err := call.do(); err != nil {
				return nil, fmt.Errorf("E14 %s warmup: %w", call.name, err)
			}
		}
		bytesBefore := srv.MetricsSnapshot().Counters[wire.CounterWriterBytes]
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocsBefore := ms.Mallocs
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := call.do(); err != nil {
				return nil, fmt.Errorf("E14 %s: %w", call.name, err)
			}
		}
		mean := time.Since(start) / ops
		runtime.ReadMemStats(&ms)
		// One flush per response on an idle connection, so the byte
		// counter delta is this client's response traffic.
		bytesAfter := srv.MetricsSnapshot().Counters[wire.CounterWriterBytes]
		t.Rows = append(t.Rows, []string{
			call.name,
			fmtDur(mean),
			fmt.Sprint((bytesAfter - bytesBefore) / ops),
			fmt.Sprint((ms.Mallocs - mallocsBefore) / ops),
		})
	}
	gets, misses := wire.PoolStats()
	if gets > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"codec scratch pool: %d gets, %d misses (%.1f%% hit rate)",
			gets, misses, 100*float64(gets-misses)/float64(gets)))
	}
	t.Notes = append(t.Notes,
		"wire-B/op counts server->client bytes (responses incl. framing); client-allocs/op is process-wide Mallocs delta / ops",
		"GetCmp payload bytes travel blob->writev unre-encoded (zero-copy spans)")
	return t, nil
}
