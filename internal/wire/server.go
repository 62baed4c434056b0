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

	"mmconf/internal/obs"
	"mmconf/internal/qos"
)

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
	clientMax, okPre := parsePreamble(pre[:])
	ver, okVer := negotiate(clientMax)
	if !okPre || !okVer {
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
