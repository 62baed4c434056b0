// Package wire is the remote-invocation layer of the system — the role
// Java RMI and JDBC play in the paper (§5.3): clients invoke interaction-
// server methods across the network, and the server pushes room events
// back over the same connection. There is one protocol: after a 5-byte
// version preamble, every message is a length-prefixed binary frame
// (codec2.go) carrying a kind, a correlation id, a trace id, a method
// code, an error string and a payload encoded by the body's hand-written
// BodyEncoder/BodyDecoder codec.
//
// Requests dispatch through a typed pipeline: a per-request
// context.Context (carrying the peer, the method name, and any deadline
// installed by the Timeout interceptor) flows through the interceptor
// chain (see interceptor.go) into the handler. The context is cancelled
// when the peer's connection drops, so a dead client aborts its own
// in-flight work instead of leaving it running.
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/obs"
	"mmconf/internal/qos"
)

// msgKind distinguishes envelope roles.
type msgKind uint8

const (
	kindRequest msgKind = iota
	kindResponse
	kindPush
)

// envelope is one message; its fields map onto the frame layout in
// codec2.go.
type envelope struct {
	Kind    msgKind
	ID      uint64 // request/response correlation
	Method  string
	Payload []byte // encoded body, already flat (received frames, PushRaw, CallRaw)
	Err     string // response only
	// Trace carries the request's trace id (requests only; minted by the
	// client, or at ingress when a foreign client sends none), so one id
	// follows the call from client log to server trace ring.
	Trace uint64

	// body is the segmented zero-copy form of an outgoing payload
	// (exclusive with Payload). Consumed — and returned to the pool — by
	// the frame writer.
	body *BodyEnc
}

// Handler processes one request on the server. payload is the request
// body's binary encoding; a non-nil result must implement BodyEncoder
// and becomes the response payload. Most handlers are built with Typed,
// which owns the decode and pins both codecs at compile time.
type Handler func(ctx context.Context, p *Peer, payload []byte) (any, error)

// ctxKey keys the request-scoped values the dispatcher installs.
type ctxKey int

const reqInfoKey ctxKey = iota

// reqInfo bundles the per-request values the dispatcher installs — one
// context allocation per request instead of one per value.
type reqInfo struct {
	peer   *Peer
	method string
	trace  uint64
}

func contextReq(ctx context.Context) (*reqInfo, bool) {
	ri, ok := ctx.Value(reqInfoKey).(*reqInfo)
	return ri, ok
}

// ContextPeer returns the peer whose request the context belongs to.
func ContextPeer(ctx context.Context) (*Peer, bool) {
	ri, ok := contextReq(ctx)
	if !ok {
		return nil, false
	}
	return ri.peer, true
}

// ContextMethod returns the method name of the request the context
// belongs to.
func ContextMethod(ctx context.Context) (string, bool) {
	ri, ok := contextReq(ctx)
	if !ok {
		return "", false
	}
	return ri.method, true
}

// ContextTraceID returns the request's trace id (0 outside a dispatch).
func ContextTraceID(ctx context.Context) uint64 {
	ri, ok := contextReq(ctx)
	if !ok {
		return 0
	}
	return ri.trace
}

// WithTraceID pins the trace id an outgoing call will carry (an alias
// for obs.ContextWithID, re-exported so callers of the wire client need
// not import obs directly).
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return obs.ContextWithID(ctx, id)
}

// ErrDraining is returned to clients whose request arrives after the
// server began a graceful shutdown.
var ErrDraining = errors.New("wire: server draining")

// Server dispatches requests to registered handlers.
type Server struct {
	mu           sync.RWMutex
	handlers     map[string]Handler
	interceptors []Interceptor
	onClose      func(*Peer)
	nextPeer     uint64
	listeners    []net.Listener
	peers        map[uint64]*Peer
	draining     bool
	stats        *Stats // optional counter sink handed to every peer writer

	inflight sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc
}

// NewServer returns an empty server.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers: make(map[string]Handler),
		peers:    make(map[uint64]*Peer),
		baseCtx:  ctx,
		cancel:   cancel,
	}
}

// Register installs a handler for a method name.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Use appends interceptors to the dispatch chain. The first interceptor
// installed is the outermost wrapper. Install interceptors before
// serving; installation is not synchronized with in-flight dispatches
// beyond the registration lock.
func (s *Server) Use(ics ...Interceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, ics...)
}

// OnPeerClose installs a callback invoked when a peer's connection ends
// (used by the interaction server to evict the member from its rooms).
func (s *Server) OnPeerClose(fn func(*Peer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose = fn
}

// SetStats installs the counter sink peer writers record into (writer
// flushes, bytes, messages). Install before serving.
func (s *Server) SetStats(st *Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = st
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		go s.ServeConn(conn)
	}
}

// Drain stops accepting new connections and begins rejecting new
// requests with ErrDraining. In-flight handlers keep running; wait for
// them with AwaitIdle.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
}

// AwaitIdle blocks until every in-flight handler has returned or ctx
// expires, whichever is first.
func (s *Server) AwaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains the server gracefully: stop accepting, wait for
// in-flight handlers up to ctx's deadline, flush every peer's queued
// writes, then cancel any stragglers and tear down every connection.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	err := s.AwaitIdle(ctx)
	_ = s.FlushPeers(ctx)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// FlushPeers blocks (bounded by ctx) until every live peer's queued
// writes have been handed to the operating system — the graceful-drain
// step that keeps batched pushes from dying in a buffer when the
// connections close. Per-peer flush errors are ignored (a broken peer
// is already lost); only ctx expiry is reported.
func (s *Server) FlushPeers(ctx context.Context) error {
	s.mu.RLock()
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.RUnlock()
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for _, p := range peers {
			wg.Add(1)
			go func(p *Peer) {
				defer wg.Done()
				_ = p.Flush()
			}(p)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WriteBacklog reports the live peer count and how many envelopes are
// queued across their batched writers — the flush-backlog gauge of the
// metrics surface (a growing backlog means clients are not draining as
// fast as rooms produce).
func (s *Server) WriteBacklog() (peers, queued int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.peers {
		queued += len(p.writeQ)
	}
	return len(s.peers), queued
}

// Close tears everything down immediately: listeners stop, every
// in-flight request context is cancelled, and peer connections close.
// For a graceful stop use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	var first error
	for _, l := range s.listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.listeners = nil
	s.draining = true
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	s.cancel()
	for _, p := range peers {
		p.Close()
	}
	return first
}

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
	// CounterWriterWrites counts actual socket writes (flushes plus
	// bufio spills of oversized batches).
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

// ServeConn runs the request loop for one connection (exported so tests
// and in-process setups can serve a net.Pipe end directly).
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	// Version handshake: the client opens with a preamble carrying the
	// highest version it speaks. Anything else — no preamble, or a client
	// that cannot speak v2 — is refused by closing the connection.
	br := bufio.NewReaderSize(conn, readBufferSize)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		conn.Close()
		return
	}
	clientMax, ok := parsePreamble(pre[:])
	if !ok {
		conn.Close()
		return
	}
	ver, ok := negotiate(clientMax)
	if !ok {
		conn.Close()
		return
	}
	// Reply before the writer goroutine exists: nothing else can be
	// writing this connection yet.
	if _, err := conn.Write(appendPreamble(nil, ver)); err != nil {
		conn.Close()
		return
	}
	if st != nil {
		st.Add(CounterConnsV2, 1)
	}
	peer := &Peer{
		ID:     atomic.AddUint64(&s.nextPeer, 1),
		conn:   conn,
		writeQ: make(chan writeItem, writeQueueSize),
		stop:   make(chan struct{}),
		dead:   make(chan struct{}),
		stats:  st,
		qmeter: qos.NewMeter(0),
		meta:   make(map[string]any),
	}
	go peer.writeLoop()
	// connCtx is the parent of every request context on this connection;
	// it dies with the connection, so a dead client cancels its own
	// in-flight handlers.
	connCtx, connCancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	s.peers[peer.ID] = peer
	s.mu.Unlock()
	defer func() {
		connCancel()
		close(peer.stop) // stop the writer (it flushes best-effort first)
		conn.Close()
		s.mu.Lock()
		delete(s.peers, peer.ID)
		onClose := s.onClose
		s.mu.Unlock()
		if onClose != nil {
			onClose(peer)
		}
	}()
	for {
		env, err := readFrame(br)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		if env.Kind != kindRequest {
			continue // clients must not send responses/pushes
		}
		s.mu.RLock()
		h, ok := s.handlers[env.Method]
		ics := s.interceptors
		draining := s.draining
		if !draining {
			// Count in-flight work while holding the read lock: Drain sets
			// the flag under the write lock, so it cannot observe a zero
			// WaitGroup between our check and our Add.
			s.inflight.Add(1)
		}
		s.mu.RUnlock()
		if draining {
			_ = peer.send(envelope{Kind: kindResponse, ID: env.ID, Method: env.Method, Err: ErrDraining.Error()})
			continue
		}
		go func(env envelope) {
			defer s.inflight.Done()
			resp := envelope{Kind: kindResponse, ID: env.ID, Method: env.Method}
			if !ok {
				resp.Err = fmt.Sprintf("wire: unknown method %q", env.Method)
			} else {
				tid := env.Trace
				if tid == 0 {
					tid = obs.MintID() // foreign client sent no id: mint at ingress
				}
				ctx := context.WithValue(connCtx, reqInfoKey,
					&reqInfo{peer: peer, method: env.Method, trace: tid})
				result, err := Chain(h, ics...)(ctx, peer, env.Payload)
				if err != nil {
					resp.Err = err.Error()
				} else if be, hasCodec := result.(BodyEncoder); hasCodec {
					resp.body = getBodyEnc()
					be.AppendBody(resp.body)
				} else if result != nil {
					resp.Err = fmt.Sprintf("wire: %s: result %T implements no BodyEncoder", env.Method, result)
				}
			}
			_ = peer.send(resp)
		}(env)
	}
}

// PushHandler receives server pushes on the client; Body.Decode
// unmarshals the payload.
type PushHandler func(method string, body Body)

// ErrClosed reports an operation on a client whose connection has ended.
// Callers needing to distinguish a dead connection (redialable) from an
// application error test with errors.Is.
var ErrClosed = errors.New("wire: connection closed")

// DefaultDialTimeout bounds Dial's TCP connect so a black-holed address
// fails instead of hanging indefinitely.
const DefaultDialTimeout = 10 * time.Second

// Client is the caller side of the protocol.
type Client struct {
	conn   net.Conn
	wmu    sync.Mutex // guards fw
	fw     *vecWriter
	nextID uint64

	ver   uint8         // negotiated version; valid once ready is closed
	ready chan struct{} // closed when the handshake settles
	done  chan struct{} // closed when the read loop exits

	mu          sync.Mutex
	pending     map[uint64]chan envelope
	onPush      PushHandler
	closed      bool
	readErr     error
	callTimeout time.Duration // default per-call deadline (0 = none)
}

// Dial connects to a server address over TCP, bounded by
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a server address over TCP; the connect attempt
// is abandoned when ctx ends (the redial path's building block — a
// reconnecting client bounds each attempt instead of hanging on a
// partitioned network).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. a net.Pipe end or a
// netsim.ThrottledConn). The version handshake runs asynchronously in
// the read loop so wrapping a synchronous transport like net.Pipe cannot
// deadlock; calls block until it settles.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		fw:      newVecWriter(conn, nil),
		pending: make(map[uint64]chan envelope),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// ProtoVersion reports the negotiated protocol version, blocking until
// the handshake settles (0 for a connection that died or was refused
// mid-handshake).
func (c *Client) ProtoVersion() uint8 {
	select {
	case <-c.ready:
		return c.ver
	case <-c.done:
		return 0
	}
}

// Done returns a channel closed when the connection ends (EOF, reset, or
// Close). A reconnecting wrapper watches it to trigger redial.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection ended (nil for a clean EOF or before it
// ended). Valid once Done is closed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// SetCallTimeout installs a default per-call deadline applied to every
// Call/CallCtx whose context carries no deadline of its own — so a hung
// server or a silent partition fails the call instead of wedging the
// caller forever. Zero disables the default.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.callTimeout = d
}

// OnPush installs the push handler. Install it before triggering any
// server activity that may push.
func (c *Client) OnPush(h PushHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPush = h
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, readBufferSize)
	fail := func(err error) {
		c.mu.Lock()
		c.closed = true
		if err != nil && err != io.EOF {
			c.readErr = err
		}
		for id, ch := range c.pending {
			close(ch)
			delete(c.pending, id)
		}
		c.mu.Unlock()
	}
	// The handshake runs here, not in NewClient, so wrapping a synchronous
	// transport (net.Pipe) cannot deadlock the constructor; calls block on
	// c.ready until it settles. No other goroutine writes before ready
	// closes, so the preamble write needs no lock.
	if _, err := c.conn.Write(appendPreamble(nil, ProtoV2)); err != nil {
		fail(err)
		return
	}
	var rep [preambleLen]byte
	if _, err := io.ReadFull(br, rep[:]); err != nil {
		fail(err)
		return
	}
	chosen, ok := parsePreamble(rep[:])
	if !ok {
		fail(errors.New("wire: bad negotiation reply"))
		return
	}
	if c.ver, ok = negotiate(chosen); !ok {
		fail(fmt.Errorf("%w: server chose version %d", ErrProtoVersion, chosen))
		return
	}
	close(c.ready)
	for {
		env, err := readFrame(br)
		if err != nil {
			fail(err)
			return
		}
		switch env.Kind {
		case kindResponse:
			c.mu.Lock()
			ch := c.pending[env.ID]
			delete(c.pending, env.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- env
			}
		case kindPush:
			c.mu.Lock()
			h := c.onPush
			c.mu.Unlock()
			if h != nil {
				h(env.Method, Body{Data: env.Payload})
			}
		}
	}
}

// closedErr is what a call on a dead connection reports: ErrClosed,
// joined with the reason the read loop recorded — so a refused
// handshake also matches ErrProtoVersion.
func (c *Client) closedErr() error {
	if err := c.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return ErrClosed
}

// roundTrip sends one request — payload if already encoded, body
// otherwise — and waits for its response envelope. It owns body: every
// path that does not reach the frame writer returns it to the pool.
func (c *Client) roundTrip(ctx context.Context, method string, payload []byte, body *BodyEnc) (envelope, error) {
	// The default deadline covers the handshake wait too: a peer that
	// accepts the connection but never answers the preamble must fail the
	// call, not wedge it.
	c.mu.Lock()
	timeout := c.callTimeout
	c.mu.Unlock()
	if timeout > 0 {
		if _, bounded := ctx.Deadline(); !bounded {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
	}
	// The handshake settles before the first byte of any call goes out.
	select {
	case <-c.ready:
	case <-c.done:
		putBodyEnc(body)
		return envelope{}, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
	case <-ctx.Done():
		putBodyEnc(body)
		return envelope{}, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	}
	id := atomic.AddUint64(&c.nextID, 1)
	ch := make(chan envelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putBodyEnc(body)
		return envelope{}, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// Every call carries a trace id: the caller's (WithTraceID) when it
	// wants to correlate, a fresh mint otherwise.
	tid, hasTID := obs.IDFrom(ctx)
	if !hasTID {
		tid = obs.MintID()
	}
	env := envelope{Kind: kindRequest, ID: id, Method: method, Payload: payload, Trace: tid, body: body}
	c.wmu.Lock()
	c.fw.encodeFrame(&env)
	err := c.fw.flush()
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		closed := c.closed
		delete(c.pending, id)
		c.mu.Unlock()
		if closed {
			return envelope{}, fmt.Errorf("wire: call %s: %w: %v", method, ErrClosed, err)
		}
		return envelope{}, fmt.Errorf("wire: call %s: %w", method, err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return envelope{}, fmt.Errorf("wire: %w during %s", c.closedErr(), method)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return envelope{}, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	}
}

// Call invokes a server method, decoding the response into reply (pass
// nil to discard the result).
func (c *Client) Call(method string, args, reply any) error {
	return c.CallCtx(context.Background(), method, args, reply)
}

// CallCtx invokes a server method, abandoning the wait when ctx ends.
// args must implement BodyEncoder and a non-nil reply BodyDecoder (the
// parameters are typed any only because benchmark/ compiles against this
// signature). An abandoned call's response is discarded if it arrives
// later; the server side may still run to completion unless its own
// timeout or the connection's death cancels it.
func (c *Client) CallCtx(ctx context.Context, method string, args, reply any) error {
	be, ok := args.(BodyEncoder)
	if !ok {
		return fmt.Errorf("wire: call %s: args %T implements no BodyEncoder", method, args)
	}
	var bd BodyDecoder
	if reply != nil {
		if bd, ok = reply.(BodyDecoder); !ok {
			return fmt.Errorf("wire: call %s: reply %T implements no BodyDecoder", method, reply)
		}
	}
	body := getBodyEnc()
	be.AppendBody(body)
	resp, err := c.roundTrip(ctx, method, nil, body)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		// Errors cross the wire as strings; re-type the ones callers
		// dispatch on: overload rejections come back as *OverloadError
		// (retry-after hint intact), routing redirects as *RedirectError
		// (target node intact), quorum refusals as *UnavailableError.
		return retypeError(resp.Err)
	}
	if bd != nil {
		return DecodeBodyBytes(resp.Payload, bd)
	}
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// CallTimeout is a convenience CallCtx with a fresh deadline.
func (c *Client) CallTimeout(d time.Duration, method string, args, reply any) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.CallCtx(ctx, method, args, reply)
}
