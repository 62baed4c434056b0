// Package mmconf_bench holds the testing.B counterparts of the experiment
// tables in EXPERIMENTS.md — one benchmark family per figure of the paper
// (see DESIGN.md §4 for the experiment ↔ figure map). cmd/mmbench prints
// the full tables; these benchmarks make the same code paths measurable
// with `go test -bench`.
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

	"mmconf/internal/blob"
	"mmconf/internal/client"
	"mmconf/internal/cluster"
	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/media/audio"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/mediadb"
	"mmconf/internal/netsim"
	"mmconf/internal/prefetch"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// --- E1: end-to-end retrieval (Fig. 1, 3, 4) ---

type systemFixture struct {
	srv  *server.Server
	addr string
	rec  *workload.PopulatedRecord
	cli  *client.Client
}

var (
	sysOnce sync.Once
	sysFix  *systemFixture
	sysErr  error
)

// system boots one shared server+client pair for the E1 benchmarks.
func system(b *testing.B) *systemFixture {
	b.Helper()
	sysOnce.Do(func() {
		dir := b.TempDir()
		db, err := store.Open(dir, store.Options{Sync: store.SyncNever})
		if err != nil {
			sysErr = err
			return
		}
		m, err := mediadb.Open(db)
		if err != nil {
			sysErr = err
			return
		}
		rec, err := workload.Populate(m, "p1", 1)
		if err != nil {
			sysErr = err
			return
		}
		srv := server.New(m)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sysErr = err
			return
		}
		go srv.Serve(l)
		cli, err := client.Dial(l.Addr().String(), "bench")
		if err != nil {
			sysErr = err
			return
		}
		sysFix = &systemFixture{srv: srv, addr: l.Addr().String(), rec: rec, cli: cli}
	})
	if sysErr != nil {
		b.Fatal(sysErr)
	}
	return sysFix
}

func BenchmarkE1RetrieveDocument(b *testing.B) {
	fix := system(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fix.cli.GetDocument("p1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RetrieveImage(b *testing.B) {
	fix := system(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fix.cli.GetImage(fix.rec.CTID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RetrieveBaseLayer(b *testing.B) {
	fix := system(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fix.cli.GetCmp(fix.rec.CmpID, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: optimal configuration (Fig. 2) ---

func BenchmarkE2OptimalOutcome(b *testing.B) {
	for _, n := range []int{5, 20, 100, 400} {
		doc, err := workload.WideRecord(fmt.Sprintf("w%d", n), n, int64(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", n+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := doc.Prefs.OptimalOutcome(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: dynamic reconfiguration (Fig. 5) ---

func BenchmarkE3Reconfig(b *testing.B) {
	for _, n := range []int{5, 20, 100} {
		doc, err := workload.WideRecord(fmt.Sprintf("w%d", n), n, int64(n))
		if err != nil {
			b.Fatal(err)
		}
		choices := cpnet.Outcome{"img000": "icon"}
		b.Run(fmt.Sprintf("components=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := doc.ReconfigPresentation(choices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: object store (Fig. 6, 7) ---

func BenchmarkE4StoreInsert(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts store.Options
	}{
		{"sync-always", store.Options{Sync: store.SyncAlways}},
		{"sync-group", store.Options{Sync: store.SyncGroup}},
		{"sync-never", store.Options{Sync: store.SyncNever}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := store.Open(b.TempDir(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			m, err := mediadb.Open(db)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 64<<10)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.PutImage(int64(i), "", 1.0, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4StoreFetch(b *testing.B) {
	db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	ids := make([]uint64, 100)
	for i := range ids {
		id, err := m.PutImage(int64(i), "", 1.0, payload)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GetImage(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

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
// with one concurrent session per room. The shards axis re-runs the same
// load against a single-shard registry — the pre-sharding shape, where
// every room lookup met the same lock — versus the shipped 32-shard
// table; the isolated lock cost is in BenchmarkRegistryLookup
// (internal/server).
func BenchmarkE5MultiRoom(b *testing.B) {
	const roomN = 8
	for _, shards := range []int{1, 32} {
		b.Run(fmt.Sprintf("rooms=%d/shards=%d", roomN, shards), func(b *testing.B) {
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
			srv, err := server.NewWith(m, server.Options{RegistryShards: shards})
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
}

// BenchmarkE5FanOut measures push fan-out through the propagation/
// delivery path (room broadcast → event forwarders → wire writers →
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
				if err := c.Call(proto.MJoinRoom, &proto.JoinRoomReq{
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
						if err := conns[0].Call(proto.MChat, &req, nil); err != nil {
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
			if err := c.Call(proto.MGetCmp, &req, &resp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(resp.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp proto.GetCmpResp
				if err := c.Call(proto.MGetCmp, &req, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: voice processing (Fig. 10) ---

var (
	voiceOnce    sync.Once
	voiceErr     error
	voiceSeg     *voice.Segmenter
	voiceSpeaker *voice.SpeakerSpotter
	voiceWords   *voice.WordSpotter
	voiceSignal  []float64
	voiceSegs    []audio.Segment
)

func voiceFixtures(b *testing.B) {
	b.Helper()
	voiceOnce.Do(func() {
		speakers := audio.DefaultSpeakers()
		synth := audio.NewSynthesizer(1)
		script := []audio.ScriptItem{
			{Type: audio.Silence, Dur: 0.5},
			{Type: audio.Speech, Speaker: speakers[0], Words: []string{"patient", "urgent"}},
			{Type: audio.Music, Dur: 1.0},
			{Type: audio.Speech, Speaker: speakers[1], Words: []string{"tumor", "biopsy"}},
			{Type: audio.Artifact, Dur: 0.5},
			{Type: audio.Speech, Speaker: speakers[2], Words: []string{"negative", "normal"}},
		}
		var signals [][]float64
		var truths [][]audio.Segment
		for i := 0; i < 2; i++ {
			sig, segs, err := synth.Compose(script)
			if err != nil {
				voiceErr = err
				return
			}
			signals = append(signals, sig)
			truths = append(truths, segs)
		}
		voiceSeg, voiceErr = voice.TrainSegmenter(signals, truths)
		if voiceErr != nil {
			return
		}
		voiceSignal, voiceSegs, voiceErr = synth.Compose(script)
		if voiceErr != nil {
			return
		}
		enroll := make(map[string][][]float64)
		for _, sp := range speakers {
			w, _, err := synth.Utterance(sp, []string{"patient", "tumor", "normal", "urgent", "biopsy"})
			if err != nil {
				voiceErr = err
				return
			}
			enroll[sp.Name] = [][]float64{w}
		}
		voiceSpeaker, voiceErr = voice.TrainSpeakerSpotter(enroll, 4, 7)
		if voiceErr != nil {
			return
		}
		examples := map[string][][]float64{}
		var garbage [][]float64
		for _, sp := range speakers[:3] {
			w, _, err := synth.Utterance(sp, []string{"urgent"})
			if err != nil {
				voiceErr = err
				return
			}
			examples["urgent"] = append(examples["urgent"], w)
			g, _, err := synth.Utterance(sp, []string{"patient", "normal"})
			if err != nil {
				voiceErr = err
				return
			}
			garbage = append(garbage, g)
		}
		voiceWords, voiceErr = voice.TrainWordSpotter(examples, garbage, 42)
	})
	if voiceErr != nil {
		b.Fatal(voiceErr)
	}
}

func BenchmarkE7Segment(b *testing.B) {
	voiceFixtures(b)
	b.SetBytes(int64(len(voiceSignal) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := voiceSeg.Segment(voiceSignal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7SpeakerSpot(b *testing.B) {
	voiceFixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := voiceSpeaker.Spot(voiceSignal, voiceSegs, -1e9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7WordSpot(b *testing.B) {
	voiceFixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := voiceWords.Spot(voiceSignal, []string{"urgent"}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: preference-based prefetch (§4.4) ---

func BenchmarkE8Prefetch(b *testing.B) {
	doc, err := workload.MedicalRecord("e8", 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := map[string]map[string]uint64{
		"ct":    {"full": 11, "segmented": 15, "lowres": 13},
		"xray":  {"full": 12, "icon": 16},
		"voice": {"audio": 14},
	}
	for comp, vals := range ids {
		c, err := doc.Component(comp)
		if err != nil {
			b.Fatal(err)
		}
		for i := range c.Presentations {
			if id, ok := vals[c.Presentations[i].Name]; ok {
				c.Presentations[i].ObjectID = id
			}
		}
	}
	script := workload.Session(doc, []string{"a", "b"}, 100, 5)
	link, err := netsim.NewLink(256<<10, 30*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []prefetch.Policy{prefetch.PolicyNone, prefetch.PolicyLRU, prefetch.PolicyPreference} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				link.Reset()
				if _, err := prefetch.Simulate(doc, script, pol, 1<<20, 512<<10, link); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Rank isolates the candidate-ranking step a client runs after
// every choice.
func BenchmarkE8Rank(b *testing.B) {
	doc, err := workload.MedicalRecord("e8rank", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prefetch.Rank(doc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: online update (§4.2) ---

func BenchmarkE9AddOperationVariable(b *testing.B) {
	doc, err := workload.WideRecord("e9", 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Rebuild periodically so the network does not grow with b.N and
		// skew the per-op cost.
		if i%64 == 0 && i > 0 {
			b.StopTimer()
			doc, err = workload.WideRecord("e9", 50, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		name := fmt.Sprintf("op%d", i%64)
		if _, err := doc.Prefs.AddOperationVariable("img000", name, "full"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9OverlayCompletion(b *testing.B) {
	doc, err := workload.WideRecord("e9b", 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	ov := doc.NewOverlay()
	if _, err := doc.ApplyOperationPrivate(ov, "img000", "zoom", "full"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := doc.ReconfigPresentationFor(ov, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: admission control / overload protection ---

// BenchmarkE12LimiterAcquire measures the uncontended admission hot
// path: the slot take/release every admitted request pays on top of
// its handler.
func BenchmarkE12LimiterAcquire(b *testing.B) {
	l := wire.NewLimiter(64, 128, wire.ShedByPriority)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Acquire(ctx, wire.PriorityInteractive, time.Second); err != nil {
			b.Fatal(err)
		}
		l.Release(time.Microsecond)
	}
}

// BenchmarkE12LimiterShed measures the fail-fast rejection path — the
// cost of turning an excess request away, which under overload is paid
// instead of the handler's full decode/fetch/encode cost.
func BenchmarkE12LimiterShed(b *testing.B) {
	l := wire.NewLimiter(1, 0, wire.ShedByPriority)
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

// BenchmarkE12TokenBucket measures the per-peer rate-limit charge
// every non-control request pays when PerPeerRate is configured.
func BenchmarkE12TokenBucket(b *testing.B) {
	tb := wire.NewTokenBucket(1e9, 1<<30)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		if ok, _ := tb.Take(now); !ok {
			b.Fatal("bucket ran dry")
		}
	}
}

// BenchmarkE12AdmissionRPC measures what the admission interceptor adds
// to a cheap end-to-end RPC: disabled is the pre-admission pipeline,
// enabled charges the per-peer bucket and takes a limiter slot on an
// otherwise idle server.
func BenchmarkE12AdmissionRPC(b *testing.B) {
	for _, mode := range []struct {
		name        string
		maxInflight int
		rate        float64
	}{
		{"disabled", -1, 0},
		{"enabled", 1024, 1e9},
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
			if _, err := workload.Populate(m, "p1", 1); err != nil {
				b.Fatal(err)
			}
			srv, err := server.NewWith(m, server.Options{
				MaxInflight: mode.maxInflight,
				PerPeerRate: mode.rate,
			})
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
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp proto.ListDocumentsResp
				if err := c.CallCtx(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: wire protocol v2 ---

// BenchmarkE14WireRPC measures the wire codec's share of the
// admission-path RPC from E12: a ListDocuments call against an
// admission-enabled server. The sub-benchmark keeps the name proto=v2
// so its BENCH_9.json entry (time, bytes and allocs per op) still gates
// it.
func BenchmarkE14WireRPC(b *testing.B) {
	b.Run("proto=v2", func(b *testing.B) {
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
		srv, err := server.NewWith(m, server.Options{
			MaxInflight: 1024,
			PerPeerRate: 1e9,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(l)
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		c := wire.NewClient(conn)
		defer c.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var resp proto.ListDocumentsResp
			if err := c.CallCtx(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E13: content-addressed blob store ---

// benchPayload fills a 64 KiB buffer with content unique to n, so
// successive puts never dedup against each other.
func benchPayload(p []byte, n int) {
	for i := range p {
		p[i] = byte(i) ^ byte(i>>8) ^ byte(n) ^ byte(n>>8) ^ byte(n>>16)
	}
}

// BenchmarkE13PutDistinct measures cold puts: every payload is new, so
// each one is chunked, hashed, and appended.
func BenchmarkE13PutDistinct(b *testing.B) {
	bs, err := blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPayload(payload, i)
		if _, err := bs.Put(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13PutDedupHit measures warm puts: the payload is already
// stored, so the put costs one SHA-256 pass and a refcount bump — no
// disk writes. The gap to PutDistinct is the dedup win.
func BenchmarkE13PutDedupHit(b *testing.B) {
	bs, err := blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	payload := make([]byte, 64<<10)
	benchPayload(payload, 0)
	if _, err := bs.Put(payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Put(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Get measures reading a multi-chunk object back, including
// per-chunk CRC and whole-object digest verification.
func BenchmarkE13Get(b *testing.B) {
	bs, err := blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	payload := make([]byte, 256<<10)
	benchPayload(payload, 0)
	h, err := bs.Put(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Get(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Churn measures the put+release cycle that dominates
// overwrite-heavy workloads: every release feeds the free lists and
// every put is served from a reclaimed hole.
func BenchmarkE13Churn(b *testing.B) {
	bs, err := blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPayload(payload, i)
		h, err := bs.Put(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := bs.Release(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Compact measures migrating the live remainder out of
// sparse segments: per iteration, 8 objects fill several small
// segments, 6 are deleted, and Compact moves the survivors.
func BenchmarkE13Compact(b *testing.B) {
	payload := make([]byte, 32<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bs, err := blob.Open(b.TempDir(), blob.Options{SegmentSize: 64 << 10, CompactRatio: -1})
		if err != nil {
			b.Fatal(err)
		}
		var handles []blob.Handle
		for j := 0; j < 8; j++ {
			benchPayload(payload, i*8+j)
			h, err := bs.Put(payload)
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles[2:] {
			if err := bs.Release(h); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := bs.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		bs.Close()
		b.StartTimer()
	}
}

// --- Substrate micro-benchmarks used across experiments ---

func BenchmarkBlobPut(b *testing.B) {
	db, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.PutBlob(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocumentMarshal(b *testing.B) {
	doc, err := workload.MedicalRecord("m", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := doc.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocumentUnmarshal(b *testing.B) {
	doc, err := workload.MedicalRecord("m", 1)
	if err != nil {
		b.Fatal(err)
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := document.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E15: adaptive QoS loop (§4.4) ---

// BenchmarkE15Simulate measures the scripted-consultation replay behind
// the E15 table on the dialup profile: static-high (the solver left
// optimistic) vs adaptive (the bandwidth tuning variable pinned to the
// level the estimator converges to on that link). The simulated link
// waits are modeled, not slept, so the benchmark measures solver +
// buffer work per replay.
func BenchmarkE15Simulate(b *testing.B) {
	doc, err := workload.MedicalRecord("e15", 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := map[string]map[string]uint64{
		"ct":    {"full": 11, "segmented": 15, "lowres": 13},
		"xray":  {"full": 12, "icon": 16},
		"voice": {"audio": 14},
	}
	for comp, vals := range ids {
		c, err := doc.Component(comp)
		if err != nil {
			b.Fatal(err)
		}
		for i := range c.Presentations {
			if id, ok := vals[c.Presentations[i].Name]; ok {
				c.Presentations[i].ObjectID = id
			}
		}
	}
	if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
		b.Fatal(err)
	}
	script := workload.Session(doc, []string{"a", "b"}, 100, 15)
	link, err := netsim.Dialup.Link()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		initial cpnet.Outcome
	}{
		{"static-high", nil},
		{"adaptive", cpnet.Outcome{core.BandwidthVariable: core.BandwidthLow}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				link.Reset()
				if _, err := prefetch.SimulateWith(doc, script, prefetch.PolicyPreference,
					1<<20, 512<<10, link, mode.initial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15ControllerUpdate isolates the per-tick classification the
// server's QoS loop pays per member: one hysteresis-banded level
// decision from a measured rate.
func BenchmarkE15ControllerUpdate(b *testing.B) {
	ctrl, err := qos.NewController(qos.DefaultBands())
	if err != nil {
		b.Fatal(err)
	}
	rates := []float64{5e3, 5e4, 5e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctrl.Update(rates[i%len(rates)], 16, 0)
	}
}

// BenchmarkE15MeterObserve isolates the per-write EWMA sample the wire
// layer charges every timed socket write.
func BenchmarkE15MeterObserve(b *testing.B) {
	m := qos.NewMeter(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe(32<<10, 5*time.Millisecond)
	}
}

// BenchmarkE15TuningExtension measures the one-time CP-net model
// extension the server applies per document when QoS is enabled —
// author CPT rows captured and re-ranked per bandwidth level.
func BenchmarkE15TuningExtension(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := workload.MedicalRecord("e15t", 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E17: digest-driven replication ---

// replBenchStores builds a sender holding nObjects multi-chunk objects
// and an empty receiver, returning the sender's handles.
func replBenchStores(b *testing.B, nObjects int) (src, dst *blob.Store, handles []blob.Handle) {
	b.Helper()
	var err error
	src, err = blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { src.Close() })
	dst, err = blob.Open(b.TempDir(), blob.Options{CompactRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dst.Close() })
	payload := make([]byte, 256<<10)
	for i := 0; i < nObjects; i++ {
		benchPayload(payload, i)
		h, err := src.Put(payload)
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
	}
	return src, dst, handles
}

// replicateBlob runs the full digest protocol for one object: manifest
// from the sender, diff on the receiver, chunk pulls for the missing
// set, verified materialization.
func replicateBlob(src, dst *blob.Store, h blob.Handle) error {
	manifest, err := src.Manifest(h)
	if err != nil {
		return err
	}
	data := make(map[blob.Digest][]byte)
	for _, cd := range dst.MissingChunks(manifest) {
		chunk, err := src.GetChunk(cd)
		if err != nil {
			return err
		}
		data[cd] = chunk
	}
	_, err = dst.PutFromChunks(h.Digest, h.Length, manifest, data)
	return err
}

// BenchmarkE17ManifestDiff isolates the receiver-side diff: one
// MissingChunks pass over a 64-chunk manifest against a store holding
// half of it.
func BenchmarkE17ManifestDiff(b *testing.B) {
	src, dst, _ := replBenchStores(b, 0)
	payload := make([]byte, 32<<10)
	var manifest []blob.Digest
	for i := 0; i < 64; i++ {
		benchPayload(payload, i)
		h, err := src.Put(payload)
		if err != nil {
			b.Fatal(err)
		}
		m, err := src.Manifest(h)
		if err != nil {
			b.Fatal(err)
		}
		manifest = append(manifest, m...)
		if i%2 == 0 {
			if err := replicateBlob(src, dst, h); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if missing := dst.MissingChunks(manifest); len(missing) == 0 {
			b.Fatal("diff found nothing missing")
		}
	}
}

// BenchmarkE17SyncDelta measures replicating a cold multi-chunk object
// end to end — manifest, diff, chunk reads, digest-verified install —
// then releasing it so every iteration transfers the full delta.
func BenchmarkE17SyncDelta(b *testing.B) {
	src, dst, handles := replBenchStores(b, 1)
	h := handles[0]
	b.SetBytes(int64(h.Length))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replicateBlob(src, dst, h); err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17RepeatSync measures the protocol when the receiver
// already converged: the diff comes back empty and the install dedups —
// zero chunk bytes move, the steady-state heartbeat cost.
func BenchmarkE17RepeatSync(b *testing.B) {
	src, dst, handles := replBenchStores(b, 1)
	h := handles[0]
	if err := replicateBlob(src, dst, h); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(h.Length))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replicateBlob(src, dst, h); err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17UnchangedFlush measures what a replication flush of a room
// whose dataset did not change pays for the dataset half: one unforced
// sync on the owner after the standby has converged. Before the position
// gate this was a full export (document blob read and decode, four table
// walks, frame marshal, SHA-256) that the fingerprint then discarded.
func BenchmarkE17UnchangedFlush(b *testing.B) {
	h, err := cluster.NewHarness(cluster.HarnessOptions{Nodes: 3, Dir: b.TempDir(), Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Close)
	if err := h.WaitConverged(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	const roomName = "e17-unchanged"
	owner := h.Owner(roomName)
	standby := cluster.NewPlacement(owner.Node.Live()).Standby(roomName)
	c, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{owner.Addr}, "bench", client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if _, _, err := c.Join(roomName, h.Record.Doc.ID, 0); err != nil {
		b.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); owner.Node.Metrics().ManifestSyncs == 0; {
		if time.Now().After(deadline) {
			b.Fatal("the room's dataset never synced to its standby")
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner.SyncDataset(roomName, h.Record.Doc.ID, standby)
	}
}
