// Package mmconf_bench holds the testing.B benchmarks EXPERIMENTS.md
// quotes beside its tables (E5, E6, E12). They are instruments for
// reading one code path in isolation while working on it; CI runs them at
// -benchtime=1x only, to keep them compiling and running. Performance is
// measured and gated by benchmark/, the paper's figures are regenerated by
// cmd/mmbench, and the counted facts these benchmarks print (allocations,
// encodes, bytes) are pinned by tier-1 tests beside the code they count.
package mmconf_bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// --- E5: room propagation (Fig. 8) ---

func BenchmarkE5Propagation(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			doc, err := workload.MedicalRecord("e5", 1)
			if err != nil {
				b.Fatal(err)
			}
			r, err := room.New("bench", doc)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				m, _, _, err := r.Join(context.Background(), fmt.Sprintf("m%02d", i))
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(m *room.Member) {
					defer wg.Done()
					for range m.Events() {
					}
				}(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			values := []string{"segmented", "full", "lowres"}
			for i := 0; i < b.N; i++ {
				if err := r.Choice(context.Background(), "m00", "ct", values[i%len(values)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			r.Close()
			wg.Wait()
		})
	}
}

// BenchmarkE5MultiRoom measures cross-room choice throughput through the
// whole pipeline (client → wire → typed handler → room → push fan-out)
// with one concurrent session per room. A member's request reaches its
// room through its connection's membership and takes no room-table lock.
func BenchmarkE5MultiRoom(b *testing.B) {
	const roomN = 8
	b.Run(fmt.Sprintf("rooms=%d", roomN), func(b *testing.B) {
		db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		m, err := mediadb.Open(db)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Populate(m, "p1", 1); err != nil {
			b.Fatal(err)
		}
		srv, err := server.NewWith(m, server.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(l)
		sessions := make([]*client.Session, roomN)
		for i := range sessions {
			cli, err := client.Dial(l.Addr().String(), fmt.Sprintf("bench%02d", i))
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			s, _, err := cli.Join(fmt.Sprintf("ward-%d", i), "p1", 0)
			if err != nil {
				b.Fatal(err)
			}
			sessions[i] = s
		}
		values := []string{"segmented", "full", "lowres"}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for i, s := range sessions {
			n := b.N / roomN
			if i == 0 {
				n += b.N % roomN
			}
			wg.Add(1)
			go func(s *client.Session, n int) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if err := s.Choice("ct", values[j%len(values)]); err != nil {
						b.Error(err)
						return
					}
				}
			}(s, n)
		}
		wg.Wait()
	})
}

// BenchmarkE5FanOut measures push fan-out through the propagation/
// delivery path (room broadcast → member queues → wire writers →
// TCP) as room size grows: one member issues b.N chats from enough
// concurrent senders to keep the path saturated (a single synchronous
// caller would measure its own RPC round-trip, not fan-out), and every
// member receives at the wire layer — envelopes only, no per-member
// payload decode, so the metric isolates the server's delivery cost
// rather than n in-process clients' unmarshal work. events/s counts
// event pushes actually received across all members per second.
func BenchmarkE5FanOut(b *testing.B) {
	for _, n := range []int{2, 8, 16, 32} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			m, err := mediadb.Open(db)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := workload.Populate(m, "p1", 1); err != nil {
				b.Fatal(err)
			}
			srv := server.New(m)
			defer srv.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			var delivered atomic.Int64
			conns := make([]*wire.Client, n)
			for i := 0; i < n; i++ {
				c, err := wire.Dial(l.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				c.OnPush(func(method string, body wire.Body) {
					if method == proto.MEvent {
						delivered.Add(1)
					}
				})
				if err := c.CallCtx(context.Background(), proto.MJoinRoom, &proto.JoinRoomReq{
					Room: "fanout", DocID: "p1", User: fmt.Sprintf("m%02d", i),
				}, nil); err != nil {
					b.Fatal(err)
				}
				conns[i] = c
			}
			b.ReportAllocs()
			b.ResetTimer()
			const senders = 16
			var swg sync.WaitGroup
			for w := 0; w < senders; w++ {
				iters := b.N / senders
				if w == 0 {
					iters += b.N % senders
				}
				swg.Add(1)
				go func(iters int) {
					defer swg.Done()
					req := proto.ChatReq{Room: "fanout", User: "m00", Text: "x"}
					for j := 0; j < iters; j++ {
						if err := conns[0].CallCtx(context.Background(), proto.MChat, &req, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}(iters)
			}
			swg.Wait()
			// Every chat was broadcast before its response; drain the
			// delivery tail until the received count goes quiet.
			for last, stable := delivered.Load(), 0; stable < 10; {
				time.Sleep(2 * time.Millisecond)
				if cur := delivered.Load(); cur == last {
					stable++
				} else {
					last, stable = cur, 0
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// --- E6: multi-layer compression (Fig. 9) ---

func BenchmarkE6Encode(b *testing.B) {
	img, err := image.Phantom(256, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.W * img.H))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compress.Encode(img, compress.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6DecodeLayers(b *testing.B) {
	img, err := image.Phantom(256, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := compress.Encode(img, compress.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 1; k <= len(stream.Layers); k++ {
		b.Run(fmt.Sprintf("layers=%d", k), func(b *testing.B) {
			b.SetBytes(int64(stream.PrefixBytes(k)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stream.Decode(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6GetCmpCached measures the server's object cache on the
// layer-retrieval path: nocache re-runs the store fetch + header parse
// + prefix computation per request (the pre-cache shape, selected with
// a negative CacheBytes); cached serves repeats from the byte-bounded
// LRU. Requests go over raw wire calls — the client-side layer
// decompression (measured by BenchmarkE6DecodeLayers) would otherwise
// dominate and mask the server-side difference.
func BenchmarkE6GetCmpCached(b *testing.B) {
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{
		{"nocache", -1},
		{"cached", 0}, // 0 selects the default cache size
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			m, err := mediadb.Open(db)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := workload.Populate(m, "p1", 1)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := server.NewWith(m, server.Options{CacheBytes: mode.cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			c, err := wire.Dial(l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			req := proto.GetCmpReq{ID: rec.CmpID, MaxLayers: 1}
			var resp proto.GetCmpResp
			if err := c.CallCtx(context.Background(), proto.MGetCmp, &req, &resp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(resp.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp proto.GetCmpResp
				if err := c.CallCtx(context.Background(), proto.MGetCmp, &req, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: admission control / overload protection ---

// BenchmarkE12LimiterShed measures the fail-fast rejection path — the
// cost of turning an excess request away, which under overload is paid
// instead of the handler's full decode/fetch/encode cost.
func BenchmarkE12LimiterShed(b *testing.B) {
	l := wire.NewLimiter(1, 0)
	ctx := context.Background()
	if err := l.Acquire(ctx, wire.PriorityBulk, 0); err != nil {
		b.Fatal(err) // hold the only slot so every arrival sheds
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Acquire(ctx, wire.PriorityBulk, 0); !errors.Is(err, wire.ErrOverloaded) {
			b.Fatalf("Acquire = %v, want overload", err)
		}
	}
}
