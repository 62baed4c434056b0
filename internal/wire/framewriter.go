package wire

import (
	"encoding/binary"
	"net"
	"time"

	"mmconf/internal/qos"
)

// writeFlushBytes bounds how many bytes a v2 write batch accumulates
// before an intermediate flush: a batch of media frames flushes by size
// long before it hits writeBatchMax envelopes, keeping the segment list
// (and the window during which zero-copy payloads must stay immutable)
// bounded.
const writeFlushBytes = 1 << 20

// vecWriter assembles v2 frames as a scratch buffer plus a segment
// list, and flushes the whole batch through net.Buffers — a writev on
// TCP, so one syscall carries many frames and large payload slices flow
// from their owner (blob cache, shared push encoding) to the socket
// without an intermediate copy.
//
// Not safe for concurrent use: the server wraps it in the per-peer
// writer goroutine, the client guards it with its write mutex.
type vecWriter struct {
	conn  net.Conn
	ctr   *peerCounters // optional: a server's writers count, a client's do not
	meter *qos.Meter    // optional per-peer throughput estimator
	buf   []byte
	spans []span
	iov   [][]byte    // flush's segment list, kept from flush to flush
	vec   net.Buffers // what WriteTo consumes: iov, resliced each flush
	total int
}

func newVecWriter(conn net.Conn, ctr *peerCounters) *vecWriter {
	return &vecWriter{conn: conn, ctr: ctr, buf: make([]byte, 0, 4096)}
}

// addScratch records [off,off+n) of w.buf as frame bytes, merging with
// a preceding scratch span. Offsets (not sub-slices) survive scratch
// reallocation.
func (w *vecWriter) addScratch(off, n int) {
	if n == 0 {
		return
	}
	w.total += n
	if k := len(w.spans); k > 0 && w.spans[k-1].ext == nil && w.spans[k-1].off+w.spans[k-1].n == off {
		w.spans[k-1].n += n
		return
	}
	w.spans = append(w.spans, span{off: off, n: n})
}

// addExt records a zero-copy reference to caller-owned bytes.
func (w *vecWriter) addExt(b []byte) {
	if len(b) == 0 {
		return
	}
	w.total += len(b)
	w.spans = append(w.spans, span{ext: b})
}

// encodeFrame appends one frame for env to the pending batch. A
// segmented body (env.body) is consumed: its small scratch spans are
// copied into the batch buffer, its external payload slices pass
// through by reference, and the encoder returns to the pool — so by the
// time encodeFrame returns, only caller-owned payload bytes are
// referenced.
func (w *vecWriter) encodeFrame(env *envelope) {
	hdrOff := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0) // length hole, patched below
	w.buf = appendFrameHeader(w.buf, env)
	bodyLen := len(w.buf) - hdrOff - 4
	w.addScratch(hdrOff, len(w.buf)-hdrOff)
	w.total -= 4 // the length prefix does not count toward the body
	if env.body != nil {
		for _, s := range env.body.spans {
			if s.ext != nil {
				bodyLen += len(s.ext)
				w.addExt(s.ext)
				continue
			}
			bodyLen += s.n
			off := len(w.buf)
			w.buf = append(w.buf, env.body.buf[s.off:s.off+s.n]...)
			w.addScratch(off, s.n)
		}
		putBodyEnc(env.body)
		env.body = nil
	} else if len(env.Payload) >= externThreshold {
		bodyLen += len(env.Payload)
		w.addExt(env.Payload)
	} else if len(env.Payload) > 0 {
		bodyLen += len(env.Payload)
		off := len(w.buf)
		w.buf = append(w.buf, env.Payload...)
		w.addScratch(off, len(env.Payload))
	}
	binary.BigEndian.PutUint32(w.buf[hdrOff:], uint32(bodyLen))
	w.total += 4
}

// pending reports the batched byte count awaiting flush.
func (w *vecWriter) pending() int { return w.total }

// flush writes the batch in one net.Buffers call (writev where the
// connection supports it) and resets the batch state.
func (w *vecWriter) flush() error {
	if w.total == 0 {
		return nil
	}
	w.iov = w.iov[:0]
	for _, s := range w.spans {
		if s.ext != nil {
			w.iov = append(w.iov, s.ext)
		} else {
			w.iov = append(w.iov, w.buf[s.off:s.off+s.n])
		}
	}
	// WriteTo has a pointer receiver and consumes what it writes: called
	// on a field, no header escapes per flush, and iov keeps the backing
	// array whole for the next one.
	w.vec = w.iov
	start := time.Now()
	n, err := w.vec.WriteTo(w.conn)
	if w.meter != nil && err == nil {
		// A writev that blocked did so for the time the bottleneck link
		// (kernel buffer, throttled shim) needed to absorb n bytes — the
		// QoS estimator's raw signal.
		w.meter.Observe(int(n), time.Since(start))
	}
	if w.ctr != nil {
		w.ctr.flushes.Add(1)
		w.ctr.bytes.Add(uint64(n))
	}
	w.spans = w.spans[:0]
	w.total = 0
	if cap(w.buf) > 1<<20 {
		w.buf = make([]byte, 0, 4096) // one huge batch must not pin memory
	} else {
		w.buf = w.buf[:0]
	}
	return err
}
