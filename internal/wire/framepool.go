package wire

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A request frame lives as long as its handler. The server reads each
// request frame of up to frameClass bytes into a pooled buffer, and the
// request's payload, and anything a body decode aliases into it
// (Dec.Bytes), is valid until the handler returns; Server.run hands the
// buffer back once the response body is encoded. A larger frame is read
// into an exact-size buffer that the collector takes, so the pool never
// holds more than frameClass bytes a buffer.

// frameClass is the largest request frame (length prefix excluded) read
// into a pooled buffer: the requests a conference makes all the time — a
// choice, a chat, a join, a media fetch, an incremental replication
// frame — fit; a whole-log replication frame or a full chunk pull may not.
const frameClass = 4 << 10

// frameBuf is one pooled request frame.
type frameBuf [frameClass]byte

// Frame-pool telemetry, beside PoolStats': gets count request frames read
// into a pooled buffer, misses those the pool could not serve.
var frameGets, frameMisses atomic.Uint64

// FramePoolStats reports the request-frame pool counters (frames read
// into a pooled buffer, and of those the ones that allocated it).
func FramePoolStats() (gets, misses uint64) {
	return frameGets.Load(), frameMisses.Load()
}

var framePool = sync.Pool{New: func() any {
	frameMisses.Add(1)
	return new(frameBuf)
}}

// poisonFrames makes putFrame overwrite every frame it takes back, so a
// handler that kept an alias into its request frame reads 0xA5 bytes
// instead of the next request's. It is set only by the TestMain of the
// packages whose tests serve requests (wire, server, cluster); nothing
// else may set it.
var poisonFrames bool

// getFrame takes a request frame from the pool.
func getFrame() *frameBuf {
	frameGets.Add(1)
	return framePool.Get().(*frameBuf)
}

// putFrame returns a request frame to the pool; nil is no frame.
func putFrame(f *frameBuf) {
	if f == nil {
		return
	}
	if poisonFrames {
		for i := range f {
			f[i] = 0xA5
		}
	}
	framePool.Put(f)
}

// readRequest reads the server's next frame from br: into a pooled
// frame, returned beside the envelope, when its body fits frameClass;
// into an exact-size buffer, with a nil frame, otherwise. The envelope's
// payload aliases whichever it is.
func readRequest(br *bufio.Reader) (envelope, *frameBuf, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, nil, err
	}
	size, err := frameLen(hdr)
	if err != nil {
		return envelope{}, nil, err
	}
	if size > frameClass {
		env, err := readFrame(br)
		return env, nil, err
	}
	_, _ = br.Discard(4) // cannot fail: Peek has buffered the prefix
	f := getFrame()
	if _, err := io.ReadFull(br, f[:size]); err != nil {
		putFrame(f)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, nil, err
	}
	env, err := parseFrame(f[:size])
	if err != nil {
		putFrame(f)
		return envelope{}, nil, err
	}
	return env, f, nil
}

// refersInto reports whether the encoded body e holds a zero-copy
// reference (RawBytes) into f: a response that hands its request's own
// bytes back by reference. Such a frame must outlive the write, so
// Server.run leaves it to the collector instead of the pool.
func (e *BodyEnc) refersInto(f *frameBuf) bool {
	lo := uintptr(unsafe.Pointer(f))
	for _, s := range e.spans {
		if s.ext == nil {
			continue
		}
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(s.ext))); p >= lo && p < lo+frameClass {
			return true
		}
	}
	return false
}
