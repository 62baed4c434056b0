package wire

import (
	"context"

	"mmconf/internal/obs"
)

// segments materializes the span list against the (now final) scratch
// buffer. The returned slices alias e.buf — valid until the encoder is
// pooled again.
func (e *BodyEnc) segments() [][]byte {
	out := make([][]byte, 0, len(e.spans))
	for _, s := range e.spans {
		if s.ext != nil {
			out = append(out, s.ext)
		} else {
			out = append(out, e.buf[s.off:s.off+s.n])
		}
	}
	return out
}

// ContextTraceID returns the request's trace id (0 outside a dispatch).
func ContextTraceID(ctx context.Context) uint64 {
	if t, ok := obs.TraceFrom(ctx); ok {
		return t.ID
	}
	return 0
}

// Histogram returns the named method's live latency histogram (nil if
// the method has never been called) for callers needing quantiles
// beyond the snapshot's p50/p90/p99.
func (st *Stats) Histogram(name string) *obs.Histogram {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec := st.methods[name]; rec != nil {
		return rec.hist
	}
	return nil
}

// shutdown runs the drain sequence server.Server.Shutdown runs around the
// rooms: stop accepting, wait for in-flight handlers up to ctx's
// deadline, flush every peer's queued writes, then close.
func shutdown(ctx context.Context, s *Server) error {
	s.Drain()
	err := s.AwaitIdle(ctx)
	_ = s.FlushPeers(ctx)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}
