package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"mmconf/internal/wire"
)

// layerRun collects one workload's per-layer metrics: deltas of the
// counters the program already exports over the measured windows, probes
// that time each layer's exported functions on this workload's inputs,
// and the traced pass's self times.
type layerRun struct {
	workload      string
	cfg           runConfig
	s             *sut
	rec           *recorder
	before, after map[string]float64
	res           *result
	out           map[string]float64
}

func newLayerRun(workload string, cfg runConfig, s *sut, rec *recorder, before, after map[string]float64, res *result) *layerRun {
	return &layerRun{workload: workload, cfg: cfg, s: s, rec: rec, before: before, after: after, res: res, out: make(map[string]float64)}
}

func (lr *layerRun) set(name string, v float64) {
	if _, ok := findSpec(perLayerSpecs, name); !ok {
		panic("benchmark: undeclared per-layer metric " + name) // a bug in the benchmark itself
	}
	lr.out[name] = v
}

// d is a counter's growth over the measured windows.
func (lr *layerRun) d(name string) float64 { return lr.after[name] - lr.before[name] }

// n scales a probe's sample count: the smoke run takes a tenth.
func (lr *layerRun) n(samples int) int {
	if lr.cfg.smoke {
		return max(samples/10, 2)
	}
	return samples
}

// fail records a violation found after the windows (by the traced pass)
// and fails the run.
func (lr *layerRun) fail(msgs ...string) {
	for _, m := range msgs {
		lr.res.violate("traced pass: " + m)
	}
}

// common derives the counter-based metrics every workload shares.
func (lr *layerRun) common() {
	ops := float64(lr.res.Samples)
	var reads, writes []float64
	for i := range lr.rec.drivers {
		for _, byKind := range lr.rec.drivers[i].lat {
			reads = append(reads, byKind[opRead]...)
			writes = append(writes, byKind[opWrite]...)
		}
	}
	lr.set("host.slowdown", lr.res.HostSlowdown.Value)
	lr.set("client.op_p99_ms", quantile(append(append([]float64(nil), reads...), writes...), 0.99))
	lr.set("client.read_p50_us", 1e3*quantile(reads, 0.50))
	lr.set("client.write_p50_us", 1e3*quantile(writes, 0.50))

	lr.set("server.push_encodes_per_event", ratio(lr.d("push.encodes"), lr.d("push.events")))
	lr.set("wire.messages_per_flush", ratio(lr.d("wire.writer_messages"), lr.d("wire.writer_flushes")))
	lr.set("wire.writes_per_op", ratio(lr.d("wire.writer_writes"), ops))
	lr.set("wire.pool_miss_ratio", ratio(lr.d("wire.pool_misses"), lr.d("wire.pool_gets")))
	hits, misses := lr.d("cache.obj.hits"), lr.d("cache.obj.misses")
	lr.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	lr.set("server.cache_evictions_per_op", ratio(lr.d("cache.obj.evictions"), ops))
	lr.set("server.admitted_per_op", ratio(lr.d("admission.admitted"), ops))
	lr.set("server.shed", lr.d("admission.shed.queue_full")+lr.d("admission.shed.deadline")+
		lr.d("admission.shed.displaced")+lr.d("admission.shed.rate"))
	lr.set("server.qos_tune_changes", lr.d("qos.tune_changes"))
	for _, m := range serverMethods {
		ms := lr.s.methodStats(m)
		lr.set("server.handle_p50_us."+m, float64(ms.P50)/1e3)
		lr.set("server.handle_p99_us."+m, float64(ms.P99)/1e3)
	}
	lr.set("store.wal_appends_per_write", ratio(lr.d("wal.appends"), float64(len(writes))))
	lr.set("store.wal_syncs_per_write", ratio(lr.d("wal.syncs"), float64(len(writes))))
	lr.set("blob.gets_per_read", ratio(lr.d("blob.gets"), float64(len(reads))))
	lr.set("cluster.forwards_per_op", ratio(lr.d("cluster.forwards"), ops))
	lr.set("cluster.redirects", lr.d("cluster.redirects"))
	lr.set("cluster.replicated_per_op", ratio(lr.d("cluster.replicated"), ops))
	lr.set("cluster.manifest_syncs", lr.d("cluster.manifest_syncs"))
	lr.set("cluster.sync_chunk_bytes", lr.d("cluster.sync_chunk_bytes"))
}

// traced stores the traced pass's summary and writes its spans.
func (lr *layerRun) traced(t *tracer) {
	st := t.selfTimes()
	for _, l := range traceLayers {
		lr.set("trace.self_us."+l, st.layerUS[l])
	}
	lr.set("trace.residue_us", st.residueUS)
	lr.set("trace.root_mean_us", st.rootUS)
	lr.set("trace.root_p50_us", st.rootP50US)
	lr.set("trace.overhead_us", st.rootP50US-1e3*lr.res.EndToEnd["op_p50_ms"].Raw) // both as measured
	lr.set("trace.overrun_share", st.overrun)
	path := filepath.Join(lr.cfg.outDir, "trace-"+lr.workload+".jsonl")
	if err := t.write(path); err != nil {
		lr.fail(fmt.Sprintf("writing %s: %v", path, err))
	}
}

// finish returns every declared per-layer metric; one the workload did
// not exercise reads 0.
func (lr *layerRun) finish() map[string]value {
	out := make(map[string]value, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		out[s.Name] = value{Value: lr.out[s.Name], Unit: s.Unit}
	}
	return out
}

// --- bare wire layer -------------------------------------------------------

// emptyBody and blobBody are the probe's own message bodies: the wire
// layer is timed with no proto codec and no server handler behind it.
type emptyBody struct{}

func (*emptyBody) AppendBody(*wire.BodyEnc)     {}
func (*emptyBody) DecodeBody(d *wire.Dec) error { return d.Err() }

type blobBody struct{ Data []byte }

func (b *blobBody) AppendBody(e *wire.BodyEnc)   { e.RawBytes(b.Data) }
func (b *blobBody) DecodeBody(d *wire.Dec) error { b.Data = d.Bytes(); return d.Err() }

func noopHandler(context.Context, *wire.Peer, []byte) (any, error) { return nil, nil }

// blobHandler answers every call with the same n-byte body.
func blobHandler(n int) wire.Handler {
	b := &blobBody{Data: make([]byte, n)}
	return func(context.Context, *wire.Peer, []byte) (any, error) { return b, nil }
}

const (
	mNoop    = "bench.noop"
	mBlob64  = "bench.blob64k"
	mBlob256 = "bench.blob256k"
	mPush    = "bench.push"
	mPushed  = "bench.pushed"
)

// wireBench is a bare wire.Server on loopback with no-op handlers.
type wireBench struct {
	srv    *wire.Server
	client *wire.Client
	pushAt atomic.Int64 // ns since base of the latest push delivery
	base   time.Time
}

func newWireBench() (*wireBench, error) {
	b := &wireBench{srv: wire.NewServer(), base: time.Now()}
	b.srv.Register(mNoop, noopHandler)
	b.srv.Register(mBlob64, blobHandler(64<<10))
	b.srv.Register(mBlob256, blobHandler(256<<10))
	pushed := make([]byte, 200) // about one room event
	b.srv.Register(mPush, func(_ context.Context, p *wire.Peer, _ []byte) (any, error) {
		return nil, p.PushRaw(mPushed, wire.EncBinary, pushed)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = b.srv.Serve(l) }() // returns when close() closes the server
	if b.client, err = wire.Dial(l.Addr().String()); err != nil {
		b.srv.Close()
		return nil, err
	}
	b.client.OnPush(func(string, wire.Body) { b.pushAt.Store(int64(time.Since(b.base))) })
	return b, nil
}

func (b *wireBench) close() {
	b.client.Close()
	b.srv.Close()
}

// rtt times one round trip of method in ns per call.
func (b *wireBench) rtt(lr *layerRun, method string, samples, batch int, reply any) float64 {
	ctx := context.Background()
	var failed error
	ns := timeCalls(lr.n(samples), batch, func() {
		if err := b.client.CallCtx(ctx, method, &emptyBody{}, reply); err != nil {
			failed = err
		}
	})
	if failed != nil {
		lr.fail(fmt.Sprintf("wire probe %s: %v", method, failed))
	}
	return ns
}

// pushLatency is the time from issuing a call whose handler pushes
// before replying until the client's push handler runs.
func (b *wireBench) pushLatency(lr *layerRun) float64 {
	ctx := context.Background()
	var lat []float64
	for i := 0; i < lr.n(2000); i++ {
		t0 := int64(time.Since(b.base))
		if err := b.client.CallCtx(ctx, mPush, &emptyBody{}, nil); err != nil {
			lr.fail(fmt.Sprintf("wire probe %s: %v", mPush, err))
			return 0
		}
		// The push precedes the reply on the same FIFO connection.
		lat = append(lat, float64(b.pushAt.Load()-t0))
	}
	return median(lat)
}

// wireProbes fills the wire.rtt_* and wire.push_us metrics the workload
// asked for.
func (lr *layerRun) wireProbes(small, blob64, blob256, push bool) {
	b, err := newWireBench()
	if err != nil {
		lr.fail(fmt.Sprintf("wire probe: %v", err))
		return
	}
	defer b.close()
	if small {
		lr.set("wire.rtt_small_us", b.rtt(lr, mNoop, 300, 10, nil)/1e3)
	}
	if blob64 {
		lr.set("wire.rtt_64k_us", b.rtt(lr, mBlob64, 300, 4, &blobBody{})/1e3)
	}
	if blob256 {
		lr.set("wire.rtt_256k_us", b.rtt(lr, mBlob256, 300, 2, &blobBody{})/1e3)
	}
	if push {
		lr.set("wire.push_us", b.pushLatency(lr)/1e3)
	}
}
