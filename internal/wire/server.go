package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/obs"
	"mmconf/internal/qos"
)

// Server dispatches requests to registered handlers.
type Server struct {
	mu        sync.RWMutex
	handlers  map[string]Handler
	onClose   func(*Peer)
	nextPeer  uint64
	listeners []net.Listener
	peers     map[uint64]*Peer
	draining  bool
	ctr       *peerCounters // an installed Stats' counters, resolved by SetStats

	inflight sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc
	// work hands a request to a parked worker. Unbuffered: a send succeeds
	// only into a worker already waiting, and ServeConn starts a new one
	// otherwise, so a request never waits behind a busy worker.
	work chan job
}

// workerIdle is how long a request worker stays parked with nothing to
// run before it exits.
const workerIdle = time.Second

// job is one request on its way to a worker.
type job struct {
	peer *Peer
	ctx  context.Context // the connection's: parent of the request context
	env  envelope
	// frame is the pooled buffer env's payload aliases (nil for a frame
	// too large for the pool): run returns it once the response is encoded.
	frame *frameBuf
	h     Handler // the method's handler; nil for an unknown method
}

// NewServer returns an empty server.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers: make(map[string]Handler),
		peers:    make(map[uint64]*Peer),
		baseCtx:  ctx,
		cancel:   cancel,
		work:     make(chan job),
	}
}

// Register installs a handler for a method name.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Methods returns the names of the registered methods, sorted.
func (s *Server) Methods() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.handlers))
	for m := range s.handlers {
		names = append(names, m)
	}
	s.mu.Unlock()
	slices.Sort(names)
	return names
}

// OnPeerClose installs a callback invoked when a peer's connection ends
// (used by the interaction server to evict the member from its rooms).
func (s *Server) OnPeerClose(fn func(*Peer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose = fn
}

// SetStats installs the counter sink peer writers record into (writer
// flushes, bytes, messages) and connections are counted in, resolving
// each counter once. Install before serving.
func (s *Server) SetStats(st *Stats) {
	ctr := newPeerCounters(st)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr = ctr
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
// requests with an *UnavailableError, reason "draining", so a client
// rotates to another endpoint. In-flight handlers keep running; wait for
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

// FlushPeers blocks (bounded by ctx) until every live peer's queued
// writes, its attached sources' included, have been handed to the
// operating system — the graceful-drain step that keeps batched pushes
// from dying in a buffer when the connections close. Per-peer flush
// errors are ignored (a broken peer is already lost); only ctx expiry
// is reported.
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

// WriteBacklog reports the live peer count and how many envelopes —
// responses, Push and PushRaw — are queued across their batched writers.
// Room events never wait here: a writer pulls them from its members'
// queues (Peer.Attach), so a client that is not draining as fast as its
// rooms produce shows in the rooms' gauges (room.Gauges QueuedBytes,
// MaxQueueDepth), not in this one.
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
// For a graceful stop, run Drain, AwaitIdle and FlushPeers first.
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

// ServeConn runs the request loop for one connection (exported so tests
// and in-process setups can serve a net.Pipe end directly).
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	ctr := s.ctr
	s.mu.Unlock()
	// Version handshake: the client opens with a preamble carrying the
	// highest version it speaks. Anything else — no preamble, or a client
	// that cannot speak v3 — is refused by closing the connection.
	br := bufio.NewReaderSize(conn, readBufferSize)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		conn.Close()
		return
	}
	clientMax, okPre := parsePreamble(pre[:])
	if !okPre {
		conn.Close()
		return
	}
	// Reply before the writer goroutine exists: nothing else can be
	// writing this connection yet. A client that cannot speak v3 is told
	// version 0, which it refuses with its own ErrProtoVersion.
	ver, okVer := negotiate(clientMax)
	if _, err := conn.Write(appendPreamble(nil, ver)); err != nil || !okVer {
		conn.Close()
		return
	}
	if ctr != nil {
		ctr.conns.Add(1)
	}
	peer := &Peer{
		ID:     atomic.AddUint64(&s.nextPeer, 1),
		conn:   conn,
		writeQ: make(chan writeItem, writeQueueSize),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		dead:   make(chan struct{}),
		ctr:    ctr,
		qmeter: qos.NewMeter(),
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
		env, frame, err := readRequest(br)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		if env.Kind != kindRequest {
			putFrame(frame)
			continue // clients must not send responses/pushes
		}
		s.mu.RLock()
		h := s.handlers[env.Method]
		draining := s.draining
		if !draining {
			// Count in-flight work while holding the read lock: Drain sets
			// the flag under the write lock, so it cannot observe a zero
			// WaitGroup between our check and our Add.
			s.inflight.Add(1)
		}
		s.mu.RUnlock()
		if draining {
			putFrame(frame)
			resp := envelope{Kind: kindResponse, ID: env.ID, Method: env.Method}
			resp.fail(&UnavailableError{Reason: "draining"})
			_ = peer.send(resp)
			continue
		}
		j := job{peer: peer, ctx: connCtx, env: env, frame: frame, h: h}
		select {
		case s.work <- j:
		default:
			go s.worker(j)
		}
	}
}

// worker runs j, then every request handed to it while it is parked on
// s.work, and exits after workerIdle with none or when the server's base
// context ends. It outlives the request so the stack the handler grew
// (the server's request step, the room, the engine's solve) is still
// there for the next one: a goroutine per request starts on 2 KiB and
// copies its stack several times over on the way down, the deepest of
// them under the room lock. A worker leaves only from the select below, where it holds no
// request — one that decided to leave after taking a job would lose it.
func (s *Server) worker(j job) {
	idle := time.NewTimer(workerIdle)
	defer idle.Stop()
	var req *Request // kept from request to request while it stays reusable
	for {
		req = s.run(j, req)
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(workerIdle)
		select {
		case j = <-s.work:
		case <-idle.C:
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// run dispatches one request to its method's handler, under req (a new
// Request when req is nil), and queues the response. It returns the
// Request for the worker's next request: req again, or nil when the
// handler made it a child (Request.end). The request's frame goes back
// to the pool once the response body is encoded — unless the body refers
// into it by reference, which the writer reads later.
func (s *Server) run(j job, req *Request) *Request {
	defer s.inflight.Done()
	env, peer := &j.env, j.peer
	resp := envelope{Kind: kindResponse, ID: env.ID, Method: env.Method}
	if j.h == nil {
		resp.fail(fmt.Errorf("wire: unknown method %q", env.Method))
	} else {
		tid := env.Trace
		if tid == 0 {
			tid = obs.MintID() // foreign client sent no id: mint at ingress
		}
		if req == nil {
			req = &Request{}
		}
		req.reset(j.ctx, tid, env.Method, peer.ID)
		result, err := j.h(req, peer, env.Payload)
		if !req.end() {
			req = nil
		}
		if err != nil {
			resp.fail(err)
		} else if be, hasCodec := result.(BodyEncoder); hasCodec {
			resp.body = getBodyEnc()
			be.AppendBody(resp.body)
		} else if result != nil {
			resp.fail(fmt.Errorf("wire: %s: result %T implements no BodyEncoder", env.Method, result))
		}
	}
	if resp.body == nil || !resp.body.refersInto(j.frame) {
		putFrame(j.frame)
	}
	_ = peer.send(resp)
	return req
}
