package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"

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
	// CounterConnsV2 counts accepted connections that completed the
	// version handshake.
	CounterConnsV2 = "wire.conns_v2"
)

// errPeerClosed reports a send on a peer whose connection ended.
var errPeerClosed = errors.New("wire: peer connection closed")

// Peer is the server-side view of one client connection. Its Push and
// PushRaw methods are how the interaction server propagates room events.
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
type Peer struct {
	ID   uint64
	conn net.Conn

	writeQ chan writeItem
	stop   chan struct{} // closed by ServeConn teardown
	dead   chan struct{} // closed when the writer exits; werr is valid after
	werr   error
	stats  *Stats     // optional counter sink
	qmeter *qos.Meter // per-connection write-throughput estimator

	mu   sync.Mutex
	meta map[string]any // per-connection session state (user, rooms)
}

// Meter exposes the connection's write-throughput estimator: every
// socket write the writer goroutine performs feeds it (bytes, duration)
// observations, so under backpressure its rate tracks the client's
// effective downlink. The QoS control loop reads it.
func (p *Peer) Meter() *qos.Meter { return p.qmeter }

// QueueDepth reports how many envelopes are waiting for the writer
// goroutine right now — the drain-rate pressure companion to Meter.
func (p *Peer) QueueDepth() int { return len(p.writeQ) }

// QueueCapacity reports the writer queue bound (senders block beyond it).
func (p *Peer) QueueCapacity() int { return cap(p.writeQ) }

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

// Push sends an unsolicited message to the client. For room fan-out
// prefer PushRaw with a shared pre-encoded payload.
func (p *Peer) Push(method string, body BodyEncoder) error {
	e := getBodyEnc()
	body.AppendBody(e)
	return p.send(envelope{Kind: kindPush, Method: method, body: e})
}

// PushRaw sends an unsolicited message whose payload is already encoded
// — the encode-once fan-out path: the interaction server encodes one
// room event once and hands every member's peer the same bytes, which
// ride the frame's writev batch by reference, so the fan-out never
// copies them. The caller must not modify payload afterwards. The
// second parameter once named the payload encoding; there is only
// EncBinary now and the value is ignored (kept for benchmark/, which
// this signature is source-compatible with).
func (p *Peer) PushRaw(method string, _ uint8, payload []byte) error {
	return p.send(envelope{Kind: kindPush, Method: method, Payload: payload})
}

// Flush blocks until every message enqueued before the call has been
// handed to the operating system — the drain path's ordering guarantee.
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
// peer whose writer has died (broken connection) fails fast.
func (p *Peer) send(env envelope) error {
	select {
	case p.writeQ <- writeItem{env: env}:
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

// writeLoop is the peer's single writer goroutine: it drains writeQ,
// assembling frames as scratch + zero-copy segments, and flushes when
// the queue goes idle or a batch reaches writeBatchMax — so bursts
// coalesce into one net.Buffers write (writev on TCP) while a lone
// message flushes immediately. Oversized batches flush early by byte
// count so a run of media frames cannot pin unbounded payload memory
// behind the segment list.
func (p *Peer) writeLoop() {
	defer close(p.dead)
	w := newVecWriter(p.conn, p.stats)
	w.meter = p.qmeter
	fail := func(err error) {
		p.werr = fmt.Errorf("wire: send: %w", err)
		p.conn.Close()
	}
	for {
		var it writeItem
		select {
		case <-p.stop:
			_ = w.flush() // best effort on teardown
			return
		case it = <-p.writeQ:
		}
		for n := 0; ; n++ {
			if it.flush != nil {
				err := w.flush()
				it.flush <- err
				if err != nil {
					fail(err)
					return
				}
			} else {
				w.encodeFrame(&it.env)
				if p.stats != nil {
					p.stats.Add(CounterWriterMessages, 1)
				}
				if w.pending() >= writeFlushBytes {
					if err := w.flush(); err != nil {
						fail(err)
						return
					}
				}
			}
			if n >= writeBatchMax {
				break
			}
			// Coalesce whatever is queued right now; stop at idle.
			select {
			case it = <-p.writeQ:
				continue
			default:
			}
			break
		}
		if err := w.flush(); err != nil {
			fail(err)
			return
		}
	}
}
