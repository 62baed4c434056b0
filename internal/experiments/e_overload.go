package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/media/compress"
	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/server"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// E12Overload measures what admission control buys past saturation: an
// open-loop driver (offered rate independent of completion rate —
// workload.OpenLoop) fires uncached bulk media fetches at 1× and 3× the
// host's measured saturation rate (its raw closed-loop capacity), at
// the protected server (per-peer rate limits + MaxInflight + bounded
// queue + queue-deadline shedding) and at an unprotected baseline
// (limits disabled). Goodput is work completed within the client's SLO
// deadline, scored against the protected deployment's own closed-loop
// peak; a concurrent control-plane probe joins and leaves a conference
// room — the RPCs that keep sessions alive — and its p99 is compared
// to the same probe on an idle server.
//
// The protected server's knobs deliberately leave the host most of its
// CPU (the per-peer rate limits sum to a modest fraction of raw
// capacity): on a single-core host that headroom is what keeps the
// control plane schedulable — a join competes with bulk handlers for
// the one CPU, and no admission queue can reorder the runtime's
// scheduler — and it is what holds goodput at the configured peak no
// matter how far offered load climbs. This is the paper's §4.4 theme
// of tuning presentation quality to resource limits, applied to the
// server's own CPU. The unprotected baseline accepts everything,
// queues it, blows every deadline, and collapses.
func E12Overload(workdir string) (*Table, error) {
	return e12Overload(workdir, e12Params{
		MaxInflight:  2,
		QueueDepth:   32,
		QueueTimeout: 100 * time.Millisecond,
		RateHeadroom: 0.15,
		SLO:          500 * time.Millisecond,
		Conns:        12,
		CalibWorkers: 8,
		Calib:        1200 * time.Millisecond,
		Warmup:       1500 * time.Millisecond,
		Run:          8 * time.Second,
		Probes:       500,
		ProbeEvery:   10 * time.Millisecond,
		CtlDocParts:  5000,
		StreamBytes:  256 << 10,
	})
}

// e12Params sizes the run (shrunken by smoke tests).
type e12Params struct {
	MaxInflight  int
	QueueDepth   int
	QueueTimeout time.Duration
	// RateHeadroom scales the per-peer rate limits: their sum over the
	// driver's connections admits RateHeadroom × raw closed-loop
	// capacity. The remainder is deliberate headroom — it pays for
	// shedding the excess and keeps the control plane schedulable on a
	// saturated host.
	RateHeadroom float64
	// SLO is the per-op client deadline: work finished past it counts
	// as failed, not goodput.
	SLO time.Duration
	// Conns is the driver's connection-pool size; CalibWorkers sizes
	// the closed-loop capacity calibrations.
	Conns        int
	CalibWorkers int
	// Warmup precedes each measured open-loop window at the same rate:
	// buckets drain and queues settle before the tally starts.
	Calib, Warmup, Run time.Duration
	// Probes is how many unloaded join/leave round trips establish the
	// control-plane baseline p99; ProbeEvery spaces the probes that run
	// concurrently with each offered-load window.
	Probes     int
	ProbeEvery time.Duration
	// CtlDocParts sizes the control room's document (components): the
	// join under measurement ships this document's snapshot, so the
	// control RPC does the realistic amount of work.
	CtlDocParts int
	// StreamBytes sizes the bulk stream's full body; the driver fetches
	// a fixed 2-layer (128 KiB) prefix, the server reads the full body
	// from the store each time (caching disabled).
	StreamBytes int
}

func e12Overload(workdir string, p e12Params) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Goodput under overload: admission control vs unprotected baseline",
		Columns: []string{"series", "offered/s", "completed", "shed", "failed", "dropped", "goodput/s", "vs peak", "ctl p99", "×unloaded"},
	}
	m, _, done, err := recordStore(workdir, "p1")
	if err != nil {
		return nil, err
	}
	defer done()
	// The bulk op is an uncached 2-layer prefix fetch of a multi-layer
	// stream: the server reads and copies the full body per request
	// (store fetch + compress.Unmarshal), so every admitted op costs
	// real CPU and bytes — far more than rejecting one, which is what
	// makes shedding worthwhile rather than a wash. The stream is
	// synthesized rather than encoded: the fetch path never decodes
	// layer payloads, and wavelet-encoding real scans would dominate
	// the experiment's runtime.
	stream := e12Stream(p.StreamBytes)
	header, body, err := stream.Marshal()
	if err != nil {
		return nil, err
	}
	cmpID, err := m.PutCmp("e12-big.mml", header, body)
	if err != nil {
		return nil, err
	}
	// The control room's document: a wide record whose snapshot the
	// join ships, so the probed control RPC carries its realistic cost.
	ctlDoc, err := workload.WideRecord("e12-ctl-doc", p.CtlDocParts, 7)
	if err != nil {
		return nil, err
	}
	if err := m.PutDocument(ctlDoc); err != nil {
		return nil, err
	}
	// The driver allocates fresh multi-hundred-KB bodies per request, so
	// collector assist stalls are the main nuisance variable: each cycle
	// stalls the one or two probes it overlaps, and with cycles every
	// second those stalls ARE the p99. The live heap is tiny (tens of
	// MB), so a high target keeps cycles short and a few seconds apart —
	// rare enough that stalled probes sit above the p99 of a densely
	// sampled window. (Switching the collector off entirely tested far
	// worse: an ever-growing heap pays for itself in page faults.)
	defer debug.SetGCPercent(debug.SetGCPercent(1200))

	quiet := func(string, ...any) {}
	unprotected := server.Options{
		MaxInflight:  -1, // admission disabled: the pre-PR-5 server
		CacheBytes:   -1,
		SessionGrace: -1, // probe churn must not park sessions
		Logf:         quiet,
	}

	// Phase 1, unprotected server: raw closed-loop capacity. A closed
	// loop self-throttles, so this is the host's capacity doing only
	// useful bulk work with no limits in the way.
	var rawPeak float64
	err = e12WithServer(m, unprotected, func(addr string) error {
		pool, err := e12Dial(addr, p.Conns)
		if err != nil {
			return err
		}
		defer pool.close()
		// Capacity calibration must not carry the SLO deadline: a closed
		// loop at high concurrency has queueing latency of workers ×
		// service time, and an SLO-bounded op would time out and
		// undercount capacity.
		rawPeak = e12Calibrate(pool.cmpOp(cmpID, 10*time.Second), p.CalibWorkers, p.Calib)
		t.Rows = append(t.Rows, []string{"raw capacity (closed loop, unprotected)", "-", "-", "-", "-", "-", fmt.Sprintf("%.0f", rawPeak), "-", "-", "-"})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The per-peer limit is derived from raw capacity so the sum over
	// the pool admits RateHeadroom × rawPeak; everything above it is
	// rejected at admission, before the handler pays for decode or body
	// copies. MaxInflight and the bounded queue back the rate limit up
	// as a second line of defense.
	perPeer := p.RateHeadroom * rawPeak / float64(p.Conns)
	protected := server.Options{
		MaxInflight:  p.MaxInflight,
		QueueDepth:   p.QueueDepth,
		QueueTimeout: p.QueueTimeout,
		PerPeerRate:  perPeer,
		// Burst absorbs scheduling jitter in the arrival process: with a
		// burst of 1, refill accrued during any inter-arrival gap longer
		// than 1/rate is lost at the cap and the bucket admits well
		// under its configured rate. Kept small so a freshly idle
		// bucket's token dump stays a fraction of a second of capacity
		// (the warmup window absorbs it).
		PerPeerBurst: max(1, int(perPeer/4)),
		CacheBytes:   -1, // every fetch pays full cost: saturation is the point
		SessionGrace: -1,
		Logf:         quiet,
	}

	// Phase 2, protected server: unloaded control-plane baseline, the
	// deployment's own peak (closed loop whose ops honor the
	// retry-after hint, as a well-behaved client does), then offered
	// load at 1× and 3× that peak.
	probe := &e12Probe{room: "e12-ctl", docID: "e12-ctl-doc"}
	var peak, ctlBase float64
	err = e12WithServer(m, protected, func(addr string) error {
		probe.addr = addr
		// A settled heap before the baseline loop: the loop's own
		// snapshot garbage triggers at most one collection across it,
		// and with this many samples a stalled probe or two stays above
		// the reported p99 — the baseline must be as free of collector
		// noise as the loaded windows are.
		runtime.GC()
		base := obs.NewHistogram()
		for i := 0; i < p.Probes; i++ {
			if err := probe.once(base); err != nil {
				return err
			}
		}
		ctlBase = float64(base.Snapshot().Quantile(0.99))
		t.Rows = append(t.Rows, []string{"unloaded control probe (join+leave)", "-", "-", "-", "-", "-", "-", "-", fmtDur(time.Duration(ctlBase)), "1.0"})

		pool, err := e12Dial(addr, p.Conns)
		if err != nil {
			return err
		}
		defer pool.close()
		peak = e12Calibrate(e12HintRetry(pool.cmpOp(cmpID, 10*time.Second)), p.CalibWorkers, p.Calib)
		t.Rows = append(t.Rows, []string{"protected peak (closed loop, hint-honoring)", "-", "-", "-", "-", "-", fmt.Sprintf("%.0f", peak), "100%", "-", "-"})

		op := pool.cmpOp(cmpID, p.SLO)
		for _, mult := range []float64{1, 3} {
			res, p99, err := e12Offered(probe, op, rawPeak*mult, p)
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, e12Row(fmt.Sprintf("protected %.0fx saturation", mult), rawPeak*mult, res, peak, p99, ctlBase))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3, unprotected baseline at the same 3× offered load: same
	// store, same op, same probe, no admission control.
	err = e12WithServer(m, unprotected, func(addr string) error {
		probe.addr = addr
		pool, err := e12Dial(addr, p.Conns)
		if err != nil {
			return err
		}
		defer pool.close()
		op := pool.cmpOp(cmpID, p.SLO)
		res, p99, err := e12Offered(probe, op, rawPeak*3, p)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, e12Row("unprotected 3x saturation", rawPeak*3, res, peak, p99, ctlBase))
		return nil
	})
	if err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("bulk op = uncached db.getCmp 2-layer prefix of a %d-byte stream (CacheBytes=-1) under a %v client SLO; goodput counts completions within the SLO", len(body), p.SLO),
		fmt.Sprintf("protected: PerPeerRate=%.1f/s per conn (%.0f%% of raw capacity over %d conns), MaxInflight=%d QueueDepth=%d QueueTimeout=%v; unprotected: MaxInflight=-1 (admission disabled)", perPeer, 100*p.RateHeadroom, p.Conns, p.MaxInflight, p.QueueDepth, p.QueueTimeout),
		fmt.Sprintf("ctl p99 = join+leave round trips (fresh connection each, %d-component document snapshot) during the measured window; ×unloaded compares against the idle-server probe; control RPCs bypass per-peer rate limits by design", p.CtlDocParts),
		"saturation = raw closed-loop capacity of the unprotected host; offered multiples are of that saturation rate and both servers receive identical offered load; 'vs peak' is against the protected deployment's own closed-loop goodput (its calibration ops honor the retry-after hint)",
	)
	return t, nil
}

// e12Stream synthesizes a multi-layer stream shaped like a deep
// encoding of a scan: a small wavelet base plus residual layers. The
// first two layers (the fetched prefix) total 128 KiB; the rest of
// total is split across two residual layers the server still reads
// from the store on every fetch. Payload bytes are deterministic
// filler — the fetch path copies layer payloads but never decodes them.
func e12Stream(total int) *compress.Stream {
	const prefix = 128 << 10
	if total < prefix+(64<<10) {
		total = prefix + (64 << 10)
	}
	rest := total - prefix
	mk := func(kind compress.LayerKind, step float64, n int) compress.Layer {
		data := make([]byte, n)
		x := uint32(2463534242)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		return compress.Layer{Kind: kind, Step: step, Data: data}
	}
	return &compress.Stream{
		W: 2048, H: 2048, Levels: 4, Block: 16,
		Layers: []compress.Layer{
			mk(compress.WaveletLayer, 0.10, 32<<10),
			mk(compress.CosineLayer, 0.04, 96<<10),
			mk(compress.CosineLayer, 0.015, rest/2),
			mk(compress.CosineLayer, 0.005, rest-rest/2),
		},
	}
}

// e12Row formats one open-loop series.
func e12Row(series string, offered float64, res workload.OpenLoopResult, peak float64, controlP99 time.Duration, ctlBase float64) []string {
	vs, ratio := "-", "-"
	if peak > 0 {
		vs = fmt.Sprintf("%.0f%%", 100*res.Goodput()/peak)
	}
	if ctlBase > 0 {
		ratio = fmt.Sprintf("%.1f", float64(controlP99)/ctlBase)
	}
	return []string{
		series,
		fmt.Sprintf("%.0f", offered),
		fmt.Sprint(res.Completed), fmt.Sprint(res.Shed), fmt.Sprint(res.Failed), fmt.Sprint(res.Dropped),
		fmt.Sprintf("%.0f", res.Goodput()),
		vs,
		fmtDur(controlP99),
		ratio,
	}
}

// e12WithServer runs fn against a freshly started server over m,
// closing it afterwards. Each phase starts from a settled heap so one
// phase's garbage does not tax the next one's measurements.
func e12WithServer(m *mediadb.MediaDB, o server.Options, fn func(addr string) error) error {
	runtime.GC()
	srv, err := server.NewWith(m, o)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer srv.Close()
	return fn(l.Addr().String())
}

// e12Pool is a round-robin pool of raw wire connections: the open-loop
// driver multiplexes ops across it so one connection's reader/writer
// does not serialize the whole offered load.
type e12Pool struct {
	clients []*wire.Client
	next    atomic.Uint64
}

func e12Dial(addr string, n int) (*e12Pool, error) {
	p := &e12Pool{}
	for i := 0; i < n; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			p.close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

func (p *e12Pool) close() {
	for _, c := range p.clients {
		c.Close()
	}
}

// cmpOp builds the bulk op: one uncached GetCmp prefix fetch bounded by
// the SLO.
func (p *e12Pool) cmpOp(cmpID uint64, slo time.Duration) workload.Op {
	return func(ctx context.Context) error {
		c := p.clients[p.next.Add(1)%uint64(len(p.clients))]
		ctx, cancel := context.WithTimeout(ctx, slo)
		defer cancel()
		var resp proto.GetCmpResp
		return c.CallCtx(ctx, proto.MGetCmp, &proto.GetCmpReq{ID: cmpID, MaxLayers: 2}, &resp)
	}
}

// e12HintRetry wraps op the way a well-behaved client consumes the
// overload protocol: a shed attempt sleeps the server's retry-after
// hint and tries again, so a closed loop measures the protected
// deployment's sustainable goodput instead of busy-spinning on
// rejections.
func e12HintRetry(op workload.Op) workload.Op {
	return func(ctx context.Context) error {
		for {
			err := op(ctx)
			var oe *wire.OverloadError
			if !errors.As(err, &oe) {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(oe.RetryAfter):
			}
		}
	}
}

// e12Probe measures the control plane: each probe dials a fresh
// connection, joins the control room (shipping the document snapshot —
// the expensive, realistic part of a join), and leaves. Join and leave
// round trips are both observed. A fresh connection per probe keeps a
// client-side timeout from wedging the next probe (a timed-out join
// that landed server-side leaves the connection a member of the room),
// and exercises the whole admission path a reconnecting client takes.
// Overload sheds and timeouts are observations, not failures — a
// loaded server slowing (or shedding) its control plane is exactly
// what the probe exists to see; both are recorded at their round-trip
// time so the number stays honest.
type e12Probe struct {
	addr, room, docID string
	seq               atomic.Uint64
}

func (p *e12Probe) once(h *obs.Histogram) error {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	start := time.Now()
	c, err := wire.DialContext(ctx, p.addr)
	if err != nil {
		// A dial that cannot complete IS a control-plane measurement:
		// an overloaded server that stops accepting has lost its
		// control plane entirely. Record the stall and move on.
		h.Observe(time.Since(start))
		return e12Observed(err)
	}
	defer c.Close()
	user := fmt.Sprintf("probe-%d", p.seq.Add(1))
	var jr proto.JoinRoomResp
	start = time.Now()
	err = c.CallCtx(ctx, proto.MJoinRoom, &proto.JoinRoomReq{Room: p.room, User: user, DocID: p.docID}, &jr)
	h.Observe(time.Since(start))
	if err != nil {
		return e12Observed(err)
	}
	start = time.Now()
	err = c.CallCtx(ctx, proto.MLeaveRoom, &proto.LeaveRoomReq{Room: p.room, User: user}, nil)
	h.Observe(time.Since(start))
	return e12Observed(err)
}

// e12Observed filters probe errors: overload rejections, deadline
// expiries, and network timeouts (net maps an expired dial context to
// its own i/o-timeout error) are measurements of a loaded control
// plane; anything else aborts the experiment.
func e12Observed(err error) error {
	if err == nil || errors.Is(err, wire.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return nil
	}
	return err
}

// e12Calibrate measures peak goodput with a closed loop: workers run
// ops back-to-back for dur, completions per second. A closed loop
// cannot overload the server, so this is sustainable capacity.
func e12Calibrate(op workload.Op, workers int, dur time.Duration) float64 {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if op(ctx) == nil {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(completed.Load()) / time.Since(start).Seconds()
}

// e12Offered runs the open loop at the given rate while the concurrent
// control probe joins and leaves, returning the run tally and the
// control p99 observed during the measured window. The warmup window
// lets buckets drain and queues settle before either the tally or the
// probe starts; a forced GC beforehand keeps one run's garbage from
// taxing the next.
func e12Offered(probe *e12Probe, op workload.Op, rate float64, p e12Params) (workload.OpenLoopResult, time.Duration, error) {
	runtime.GC()
	h := obs.NewHistogram()
	probeCtx, stopProbe := context.WithCancel(context.Background())
	var probeErr error
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		select {
		case <-probeCtx.Done():
			return
		case <-time.After(p.Warmup):
		}
		for probeCtx.Err() == nil {
			if err := probe.once(h); err != nil {
				probeErr = err
				return
			}
			select {
			case <-probeCtx.Done():
			case <-time.After(p.ProbeEvery):
			}
		}
	}()
	res := workload.OpenLoop(context.Background(), op, workload.OpenLoopOptions{
		Rate:     rate,
		Warmup:   p.Warmup,
		Duration: p.Run,
		// Deep enough that the driver's own cap never throttles the
		// unprotected baseline before its latency blows the SLO many
		// times over: a backlog of MaxOutstanding × service time must
		// far exceed the SLO, or the cap would act as an accidental
		// admission limiter and mask the collapse.
		MaxOutstanding: 4096,
	})
	stopProbe()
	<-probeDone
	if probeErr != nil {
		return res, 0, probeErr
	}
	return res, h.Snapshot().Quantile(0.99), nil
}
