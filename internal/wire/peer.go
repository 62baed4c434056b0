package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mmconf/internal/qos"
)

// Connection tuning: readBufferSize is the bufio buffer behind each
// side's frame reader; writeQueueSize bounds the envelopes waiting for
// the writer goroutine (senders block beyond it — natural
// backpressure); writeBatchMax caps how many envelopes one batch
// encodes before the coalesced flush, bounding the latency of the
// batch's first message.
const (
	readBufferSize = 32 << 10
	writeQueueSize = 256
	writeBatchMax  = 256
)

// Counter names the peer writer records into the server's Stats sink.
const (
	// CounterWriterMessages counts envelopes encoded onto connections.
	CounterWriterMessages = "wire.writer_messages"
	// CounterWriterFlushes counts explicit buffer flushes (a burst of
	// messages coalesces into one flush, so flushes ≪ messages under
	// load).
	CounterWriterFlushes = "wire.writer_flushes"
	// CounterWriterWrites counts actual socket writes (one net.Buffers
	// write per flush).
	CounterWriterWrites = "wire.writer_writes"
	// CounterWriterBytes totals bytes written to sockets.
	CounterWriterBytes = "wire.writer_bytes"
	// CounterConns counts accepted connections that completed the
	// version handshake.
	CounterConns = "wire.conns"
)

// peerCounters are the counters a server's connections and their
// writers add to, resolved from its Stats once, when the Stats is
// installed.
type peerCounters struct {
	conns    *atomic.Uint64
	messages *atomic.Uint64
	// flushes counts CounterWriterFlushes and CounterWriterWrites: a
	// flush is one net.Buffers write, so the two names read one counter.
	flushes *atomic.Uint64
	bytes   *atomic.Uint64
}

func newPeerCounters(st *Stats) *peerCounters {
	c := &peerCounters{
		conns:    st.Handle(CounterConns),
		messages: st.Handle(CounterWriterMessages),
		flushes:  st.Handle(CounterWriterFlushes),
		bytes:    st.Handle(CounterWriterBytes),
	}
	st.Bind(CounterWriterWrites, c.flushes)
	return c
}

// errPeerClosed reports a send on a peer whose connection ended.
var errPeerClosed = errors.New("wire: peer connection closed")

// Peer is the server-side view of one client connection.
//
// Writes are batched: senders enqueue envelopes to a per-peer writer
// goroutine that assembles frames into one pending batch and flushes
// when the queue goes momentarily idle (or after writeBatchMax
// envelopes). A burst of pushes and responses therefore costs one
// writev instead of one syscall per envelope, while a lone message still
// flushes immediately — the added latency is one channel hop. Per-peer
// FIFO order is preserved: envelopes reach the socket in the order
// send accepted them. Flush is the explicit barrier the drain path
// uses to guarantee queued pushes hit the OS before close.
//
// Room events do not pass through writeQ: the interaction server
// attaches each membership's queue as a Source and the writer pulls
// from it (Attach, Kick), so an event crosses one goroutine between the
// room and the socket. writeQ carries responses, Push and PushRaw.
type Peer struct {
	ID   uint64
	conn net.Conn

	writeQ chan writeItem
	kick   chan struct{} // capacity 1: an attached source has something queued
	stop   chan struct{} // closed by ServeConn teardown
	dead   chan struct{} // closed when the writer exits; werr is valid after
	werr   error
	ctr    *peerCounters // nil when the server has no Stats
	qmeter *qos.Meter    // per-connection write-throughput estimator

	srcMu   sync.Mutex
	sources []Source // appended to or replaced, never edited in place: the writer ranges over a snapshot
	srcGone bool     // the writer has exited; Attach abandons what it is given

	mu   sync.Mutex
	meta map[string]any // per-connection session state (user, rooms)
}

// Source is a queue of pushes the peer's writer drains itself, on its
// own goroutine, straight into the batch it is assembling. Whoever fills
// the queue calls Kick; the backlog stays in the source, which sheds by
// its own policy when the writer (blocked in a socket write) stops
// draining.
type Source interface {
	// Drain hands what is queued to push, in order and without blocking,
	// at most a bounded number of messages a call (a source that stops at
	// its bound kicks the peer again), and reports whether the source is
	// still open. After false the peer forgets the source. push must not
	// be kept or called after Drain returns, and the payloads must not be
	// modified afterwards: they ride the batch by reference.
	Drain(push func(method string, payload []byte)) (open bool)
	// Abandon tells a source still attached that the writer is gone —
	// the connection failed or closed — and nothing will drain it again.
	// Called once, on no lock of the peer's, never after Drain said
	// false.
	Abandon()
}

// Attach adds src to the queues the writer drains. A source attached
// after the writer exited is abandoned on the spot. The caller kicks the
// peer if the source may already hold something.
func (p *Peer) Attach(src Source) {
	p.srcMu.Lock()
	gone := p.srcGone
	if !gone {
		p.sources = append(p.sources, src)
	}
	p.srcMu.Unlock()
	if gone {
		src.Abandon()
	}
}

// Kick tells the writer an attached source has something queued. It
// never blocks (a kick already pending covers this one), so a room may
// call it under its lock.
func (p *Peer) Kick() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// drainSources runs one Drain over every attached source and forgets
// the ones that ended. Writer goroutine only.
func (p *Peer) drainSources(push func(method string, payload []byte)) {
	p.srcMu.Lock()
	srcs := p.sources
	p.srcMu.Unlock()
	for _, src := range srcs {
		if src.Drain(push) {
			continue
		}
		p.srcMu.Lock()
		kept := make([]Source, 0, len(p.sources))
		for _, s := range p.sources {
			if s != src {
				kept = append(kept, s)
			}
		}
		p.sources = kept
		p.srcMu.Unlock()
	}
}

// abandonSources ends source draining for good: what is attached now,
// and whatever Attach is handed later, is abandoned.
func (p *Peer) abandonSources() {
	p.srcMu.Lock()
	srcs := p.sources
	p.sources, p.srcGone = nil, true
	p.srcMu.Unlock()
	for _, src := range srcs {
		src.Abandon()
	}
}

// Meter exposes the connection's write-throughput estimator: every
// socket write the writer goroutine performs feeds it (bytes, duration)
// observations, so under backpressure its rate tracks the client's
// effective downlink. The QoS control loop reads it.
func (p *Peer) Meter() *qos.Meter { return p.qmeter }

// writeItem is one unit of writer work: an envelope to encode, or (when
// flush is non-nil) a flush barrier to acknowledge.
type writeItem struct {
	env   envelope
	flush chan error
}

// SetMeta stores per-connection session state.
func (p *Peer) SetMeta(key string, v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta[key] = v
}

// MetaSetDefault stores v under key only if the key is unset and
// returns the stored value (existing or v) — an atomic get-or-create,
// safe against concurrent requests on the same connection.
func (p *Peer) MetaSetDefault(key string, v any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.meta[key]; ok {
		return cur
	}
	p.meta[key] = v
	return v
}

// Meta retrieves per-connection session state.
func (p *Peer) Meta(key string) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.meta[key]
	return v, ok
}

// Push sends an unsolicited message to the client.
func (p *Peer) Push(method string, body BodyEncoder) error {
	e := getBodyEnc()
	body.AppendBody(e)
	return p.send(envelope{Kind: kindPush, Method: method, body: e})
}

// PushRaw sends an unsolicited message whose payload is already encoded
// (the cluster's ingress relay hands on the owner's bytes). It copies
// payload into a pooled encoder, which the writer returns once the
// frame is in its batch, so the caller may reuse payload as soon as
// PushRaw returns. The second parameter once named the payload encoding
// a frame carried; frames carry none now and the value is ignored (kept
// for benchmark/, which this signature is source-compatible with).
func (p *Peer) PushRaw(method string, _ uint8, payload []byte) error {
	e := getBodyEnc()
	e.Fixed(payload)
	return p.send(envelope{Kind: kindPush, Method: method, body: e})
}

// Flush blocks until every message enqueued before the call — in writeQ
// or in an attached source — has been handed to the operating system:
// the drain path's ordering guarantee.
func (p *Peer) Flush() error {
	ch := make(chan error, 1)
	select {
	case p.writeQ <- writeItem{flush: ch}:
	case <-p.dead:
		return p.deadErr()
	case <-p.stop:
		return errPeerClosed
	}
	select {
	case err := <-ch:
		return err
	case <-p.dead:
		return p.deadErr()
	}
}

// Close tears the connection down.
func (p *Peer) Close() error { return p.conn.Close() }

// send enqueues one envelope for the writer goroutine. A nil return
// means the message is queued in FIFO order, not yet on the wire; a
// peer whose writer has died (broken connection) or whose connection
// is being torn down fails, every time. With room in the queue the send
// is one non-blocking channel operation (after the two checks, which
// take no lock on an open channel); a full queue waits for room, the
// writer's exit or the teardown, whichever comes first.
func (p *Peer) send(env envelope) error {
	select {
	case <-p.dead:
		return p.deadErr()
	default:
	}
	select {
	case <-p.stop:
		return errPeerClosed
	default:
	}
	it := writeItem{env: env}
	select {
	case p.writeQ <- it:
		return nil
	default:
	}
	select {
	case p.writeQ <- it:
		return nil
	case <-p.dead:
		return p.deadErr()
	case <-p.stop:
		return errPeerClosed
	}
}

// deadErr returns the writer's terminal error; call only after p.dead
// is closed (the close is the happens-before edge that publishes werr).
func (p *Peer) deadErr() error {
	if p.werr != nil {
		return p.werr
	}
	return errPeerClosed
}

// writeLoop is the peer's single writer goroutine: it takes envelopes
// off writeQ and, when kicked, events off the attached sources,
// assembling frames as scratch + zero-copy segments, and flushes when
// both go idle or a batch reaches writeBatchMax rounds — so bursts
// coalesce into one net.Buffers write (writev on TCP) while a lone
// message flushes immediately. Oversized batches flush early by byte
// count so a run of media frames cannot pin unbounded payload memory
// behind the segment list.
func (p *Peer) writeLoop() {
	// Last, with the peer marked dead: an abandoned source detaches its
	// session, and nothing it does may wait on this writer.
	defer p.abandonSources()
	defer close(p.dead)
	w := newVecWriter(p.conn, p.ctr)
	w.meter = p.qmeter
	var werr error // the first failed socket write; the loop ends on it
	encode := func(env *envelope) {
		w.encodeFrame(env)
		if p.ctr != nil {
			p.ctr.messages.Add(1)
		}
		if w.pending() >= writeFlushBytes {
			werr = w.flush()
		}
	}
	// The sources' sink, made once: a closure per drain would be an
	// allocation per wake-up. After a failed write it discards — the
	// connection is lost and so is what was queued for it.
	push := func(method string, payload []byte) {
		if werr == nil {
			encode(&envelope{Kind: kindPush, Method: method, Payload: payload})
		}
	}
	for werr == nil {
		var it writeItem
		kicked := false
		select {
		case <-p.stop:
			_ = w.flush() // best effort on teardown
			return
		case <-p.kick:
			kicked = true
		case it = <-p.writeQ:
		}
		// Take everything there is right now — envelopes and the sources'
		// events alike — into one batch, and flush when both go idle. A
		// source bounds its own drain, so writeBatchMax rounds bound the
		// batch whatever the rooms produce meanwhile.
		for n := 0; werr == nil; n++ {
			switch {
			case kicked:
				p.drainSources(push)
			case it.flush != nil:
				p.drainSources(push)
				if werr == nil {
					werr = w.flush()
				}
				it.flush <- werr
			default:
				encode(&it.env)
			}
			if n >= writeBatchMax {
				break
			}
			kicked = false
			select {
			case it = <-p.writeQ:
				continue
			case <-p.kick:
				kicked = true
				continue
			default:
			}
			break
		}
		if werr == nil {
			werr = w.flush()
		}
	}
	p.werr = fmt.Errorf("wire: send: %w", werr)
	p.conn.Close()
}
