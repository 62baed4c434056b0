package wire

import (
	"bufio"
	"encoding/binary"
	"math/bits"
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

// poisonFrames makes putFrame and putReply overwrite every buffer they
// take back, so a handler that kept an alias into its request frame, or
// a caller that read a reply's bytes after releasing it, reads 0xA5
// bytes instead of the next request's or reply's. It is set only by the
// TestMain of the packages whose tests serve requests or release
// replies (wire, server, cluster, client); nothing else may set it.
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
	size, err := peekLen(br)
	if err != nil {
		return envelope{}, nil, err
	}
	if size > frameClass {
		env, err := readFrame(br)
		return env, nil, err
	}
	_, _ = br.Discard(4) // cannot fail: Peek has buffered the prefix
	f := getFrame()
	env, err := readBody(br, f[:size])
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

// A reply frame lives as long as its caller reads the reply. A reply
// whose type embeds ReplyFrame (a media fetch's), and whose caller asked
// for a pooled frame (ReplyFrame.Pool), is read on the client into a
// pooled buffer of a size class that holds it — the whole frame when it
// is too large for the connection's reader, else its payload, copied out
// of the reader — and the decoded reply holds the buffer. The caller
// hands it back with Release once it has read the fields that alias it
// (a decoder has pulled the pixels). A reply it does not release leaves
// its buffer to the collector, which is always safe: the pool is only
// ever handed what nobody reads. Every other reply is read into a buffer
// of its own, as a request frame larger than frameClass is.
//
// The buffers live in sync.Pools and nowhere else, so a collection takes
// whatever has been idle since the one before: a burst of large replies
// leaves nothing behind for long.

// Reply size classes: four to an octave, from minReply up to maxReply,
// so a buffer a pool miss allocates is at most 1.25 times the bytes it
// is taken for. A reply
// smaller than minReply is copied into a buffer of its own, where a
// class would cost more than it holds; one larger than maxReply is read
// into one too.
const (
	minReplyShift = 10
	minReply      = 1 << minReplyShift
	maxReply      = 16 << 20
	replyClasses  = 4*(24-minReplyShift) + 1 // the last is maxReply
)

// replyClass returns the index of the smallest class of at least n bytes,
// n ≤ maxReply.
func replyClass(n int) int {
	if n <= minReply {
		return 0
	}
	m := n - 1
	o := bits.Len(uint(m)) - minReplyShift - 1 // octave: m in [2^(10+o), 2^(11+o))
	q := m >> (o + minReplyShift - 2)          // in [4, 8): m's top three bits
	return 4*o + q - 3
}

// replySize is the size of class i.
func replySize(i int) int { return (4 + i%4) << (i/4 + minReplyShift - 2) }

// replyBuf is one pooled reply buffer.
type replyBuf struct {
	b     []byte // replySize(class) bytes
	class int
}

var replyPools [replyClasses]sync.Pool

// Reply-pool telemetry, beside FramePoolStats': gets count replies read
// into a pooled buffer, misses those the pool could not serve.
var replyGets, replyMisses atomic.Uint64

// ReplyPoolStats reports the reply-frame pool counters (replies read into
// a pooled buffer, and of those the ones that allocated it).
func ReplyPoolStats() (gets, misses uint64) {
	return replyGets.Load(), replyMisses.Load()
}

// replyReach is how many classes above its own a reply may take a
// pooled buffer from: four octaves. Replies of one kind vary in size (a
// media object's is its own), and a buffer is held only until its reply
// is released, so a class that idle buffers do not fill is served from
// the classes above it.
const replyReach = 16

// getReply takes a buffer of at least n bytes, minReply ≤ n ≤ maxReply:
// a pooled one of its class or of the replyReach above, else a new one
// of its class, at most 1.25 times n.
func getReply(n int) *replyBuf {
	replyGets.Add(1)
	i := replyClass(n)
	for j := i; j < min(i+replyReach, replyClasses); j++ {
		if f, _ := replyPools[j].Get().(*replyBuf); f != nil {
			return f
		}
	}
	replyMisses.Add(1)
	return &replyBuf{b: make([]byte, replySize(i)), class: i}
}

// putReply returns a reply buffer to its pool; nil is no buffer. With
// poisonFrames set it is overwritten first, so a reader that kept an
// alias past Release reads 0xA5 bytes.
func putReply(f *replyBuf) {
	if f == nil {
		return
	}
	if poisonFrames {
		for i := range f.b {
			f.b[i] = 0xA5
		}
	}
	replyPools[f.class].Put(f)
}

// copyReply copies a reply payload out of the connection's reader: into
// a pooled buffer when the caller takes one and the payload is worth a
// class, into a buffer of its own otherwise.
func copyReply(p []byte, pooled bool) ([]byte, *replyBuf) {
	if !pooled || len(p) < minReply || len(p) > maxReply {
		return append(make([]byte, 0, len(p)), p...), nil
	}
	f := getReply(len(p))
	return f.b[:copy(f.b, p)], f
}

// readReply reads the next frame from br, of size bytes, into a pooled
// buffer the envelope holds (env.frame).
func readReply(br *bufio.Reader, size int) (envelope, error) {
	_, _ = br.Discard(4) // cannot fail: Peek has buffered the prefix
	f := getReply(size)
	env, err := readBody(br, f.b[:size])
	if err != nil {
		putReply(f)
		return envelope{}, err
	}
	env.frame = f
	return env, nil
}

// largeReply reports the call id and size of the next frame in br when
// it is a response too large for br's buffer that a reply buffer holds.
// Anything else, a malformed frame among it, reports false: peekFrame
// reads it, and reports what is wrong.
func largeReply(br *bufio.Reader) (id uint64, size int, ok bool) {
	size, err := peekLen(br)
	if err != nil || 4+size <= br.Size() || size > maxReply {
		return 0, 0, false
	}
	head, err := br.Peek(4 + min(size, 1+binary.MaxVarintLen64)) // kind, then the id
	if err != nil || msgKind(head[4]) != kindResponse {
		return 0, 0, false
	}
	id, n := binary.Uvarint(head[5:])
	return id, size, n > 0
}

// ReplyFrame is embedded in a reply type whose decoded fields may alias
// the frame the reply arrived in. After Pool, a CallCtx into the reply
// reads it into a pooled buffer that the reply then holds, and Release
// hands the buffer back once nothing reads those fields any more; a
// reply never released leaves it to the collector. The zero value takes
// no buffer, and a reply decoded any other way (DecodeBodyBytes) holds
// none.
type ReplyFrame struct {
	f    *replyBuf
	pool bool
}

// Pool makes the calls that decode into the reply read it into a pooled
// buffer. A caller asks for it when it releases the reply once done with
// its bytes: one that keeps them would keep the whole buffer, which may
// be several times their size.
func (r *ReplyFrame) Pool() { r.pool = true }

// Release returns the buffer the reply holds, if any, to the pool: every
// field decoded from the reply that aliases it (a []byte) is invalid
// from then on. A second Release does nothing; a copy of the reply
// holds the same buffer, and only one of the two may release it.
func (r *ReplyFrame) Release() {
	putReply(r.f)
	r.f = nil
}

func (r *ReplyFrame) replyFrame() *ReplyFrame { return r }

// frameHolder is a reply that embeds ReplyFrame.
type frameHolder interface{ replyFrame() *ReplyFrame }
