// Wire protocol v3: a hand-rolled length-prefixed binary framing. Every
// frame is
//
//	u32be body length | body
//	body := kind u8 | id uvarint | trace uvarint
//	        | method u16be code (0xFFFF → uvarint len + name bytes)
//	        | status u8 (responses only) | payload (rest of frame)
//
// The payload is a body in the BodyEncoder/BodyDecoder codec: a
// request's arguments, a push's event, or a response's result. A
// response whose status is not ok carries its error's fields instead
// (route.go), so a typed error reaches the caller typed.
//
// A connection opens with a version preamble: the client sends
// [0x00 'M' 'M' '2' maxVer], the server replies with the same shape
// carrying the chosen version. Version 3 is the only one spoken: a
// client that opens with anything else is disconnected — after a reply
// naming version 0, which no version agrees to, when its preamble
// offered less — and a client whose server chooses less fails its calls
// with ErrProtoVersion.
//
// Zero-copy: the encoder builds frames as segments — pooled scratch
// ranges for headers and small fields, plus direct references to large
// payload byte slices (media chunks out of the CAS, shared push
// encodings) that are never copied into an intermediate buffer. The
// batched writer hands the segment list to net.Buffers, which becomes a
// writev on TCP: one syscall flushes a batch of frames whose media
// bytes flowed straight from the blob store to the socket.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// ProtoV3 is the protocol version this package speaks — the binary
// framing above. (0 was a gob stream, retired; 1 was never shipped; 2
// carried an enc byte and errors as text.)
const ProtoV3 = 3

// EncBinary names the one payload format. No frame carries it: it is
// the value Peer.PushRaw's ignored enc argument takes.
const EncBinary uint8 = 1

// ErrProtoVersion reports a handshake that could not agree on ProtoV3.
var ErrProtoVersion = errors.New("wire: peer does not speak protocol v3")

// preambleLen is the size of the negotiation preamble and its reply.
const preambleLen = 5

// preambleMagic are bytes 1..3 of the preamble ('M' 'M' '2').
var preambleMagic = [3]byte{'M', 'M', '2'}

// maxFrameSize bounds a frame body so a malformed or hostile length
// prefix cannot make the reader allocate unbounded memory. 64 MiB
// comfortably exceeds the largest media payload the store accepts.
const maxFrameSize = 64 << 20

// externThreshold is the payload size above which the encoder records a
// reference to the caller's bytes instead of copying them into frame
// scratch. Below it, one memcpy is cheaper than growing the writev
// vector.
const externThreshold = 512

// methodNoCode marks a method with no registered code: the name travels
// inline (uvarint length + bytes).
const methodNoCode = 0xFFFF

// ErrFrameTooLarge reports a length prefix past maxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// errFrameTruncated reports a frame body shorter than its fields claim.
var errFrameTruncated = errors.New("wire: truncated frame")

// --- method-code registry -------------------------------------------------

// methodTable is one immutable version of the code table: a frame's
// encode and parse read the current one with one atomic load, and
// RegisterMethodCode replaces it whole.
type methodTable struct {
	codeByMethod map[string]uint16
	methodByCode map[uint16]string
}

var (
	methodMu sync.Mutex // serializes RegisterMethodCode's copy and swap
	methods  atomic.Pointer[methodTable]
)

func init() {
	methods.Store(&methodTable{codeByMethod: make(map[string]uint16), methodByCode: make(map[uint16]string)})
}

// RegisterMethodCode assigns a stable u16 code to a method name so
// frames carry 2 bytes instead of the string. Both sides of a
// connection share the table (it is populated by package init in
// internal/proto). Codes 0xFFFF and duplicates panic: the table is
// program-wide protocol surface, and a collision is a build bug.
// Registering copies the table, so it is cheap only at start-up.
func RegisterMethodCode(code uint16, method string) {
	if code == methodNoCode {
		panic("wire: method code 0xFFFF is reserved")
	}
	methodMu.Lock()
	defer methodMu.Unlock()
	cur := methods.Load()
	if prev, ok := cur.methodByCode[code]; ok && prev != method {
		panic(fmt.Sprintf("wire: method code %d already bound to %q", code, prev))
	}
	if prev, ok := cur.codeByMethod[method]; ok && prev != code {
		panic(fmt.Sprintf("wire: method %q already bound to code %d", method, prev))
	}
	next := &methodTable{
		codeByMethod: maps.Clone(cur.codeByMethod),
		methodByCode: maps.Clone(cur.methodByCode),
	}
	next.methodByCode[code] = method
	next.codeByMethod[method] = code
	methods.Store(next)
}

func methodCode(method string) (uint16, bool) {
	c, ok := methods.Load().codeByMethod[method]
	return c, ok
}

func methodName(code uint16) (string, bool) {
	m, ok := methods.Load().methodByCode[code]
	return m, ok
}

// --- negotiation ----------------------------------------------------------

// appendPreamble renders the negotiation preamble (or its reply)
// carrying ver.
func appendPreamble(dst []byte, ver uint8) []byte {
	return append(dst, 0x00, preambleMagic[0], preambleMagic[1], preambleMagic[2], ver)
}

// parsePreamble validates a preamble (or reply) and extracts the
// version it carries.
func parsePreamble(b []byte) (ver uint8, ok bool) {
	if len(b) != preambleLen || b[0] != 0x00 ||
		b[1] != preambleMagic[0] || b[2] != preambleMagic[1] || b[3] != preambleMagic[2] {
		return 0, false
	}
	return b[4], true
}

// negotiate picks the connection version given the version the other
// side offered (server: the client's maximum; client: the server's
// choice). A peer from the future degrades to ProtoV3; one that cannot
// reach it is refused, with version 0.
func negotiate(peer uint8) (ver uint8, ok bool) {
	if peer < ProtoV3 {
		return 0, false
	}
	return ProtoV3, true
}

// --- pooled-buffer metrics ------------------------------------------------

// Pool telemetry: gets count pool fetches, misses count fetches the
// pool could not serve (a fresh allocation). Hit rate =
// (gets-misses)/gets. Package-global because sync.Pool is; surfaced
// through sys.stats as wire.pool_gets / wire.pool_misses.
var poolGets, poolMisses atomic.Uint64

// PoolStats reports the scratch-buffer pool counters (total fetches,
// fetches that allocated).
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// --- binary body codec primitives -----------------------------------------

// span is one segment of an encoded frame or body: a range of the
// owning encoder's scratch when ext is nil, a reference to external
// bytes otherwise.
type span struct {
	off, n int
	ext    []byte
}

// BodyEnc builds the binary encoding of one request/response body as
// scratch bytes plus zero-copy references to large payload slices.
// Encoders come from a pool; the writer returns them after the frame is
// on the wire. Callers must not mutate a slice passed to RawBytes until
// the message has been written.
type BodyEnc struct {
	buf   []byte
	spans []span
}

var bodyEncPool = sync.Pool{New: func() any {
	poolMisses.Add(1)
	return &BodyEnc{buf: make([]byte, 0, 1024)}
}}

// getBodyEnc fetches a reset encoder from the pool.
func getBodyEnc() *BodyEnc {
	poolGets.Add(1)
	e := bodyEncPool.Get().(*BodyEnc)
	e.buf = e.buf[:0]
	e.spans = e.spans[:0]
	return e
}

// putBodyEnc returns an encoder to the pool. Oversized scratch is
// dropped so one huge body does not pin memory forever.
func putBodyEnc(e *BodyEnc) {
	if e == nil || cap(e.buf) > 1<<20 {
		return
	}
	bodyEncPool.Put(e)
}

// grow extends scratch by n bytes and returns the slice to fill,
// keeping the span list pointed at scratch offsets (offsets survive the
// realloc that invalidates sub-slices).
func (e *BodyEnc) grow(n int) []byte {
	off := len(e.buf)
	if off+n <= cap(e.buf) {
		e.buf = e.buf[:off+n]
	} else {
		e.buf = append(e.buf, make([]byte, n)...)
	}
	if k := len(e.spans); k > 0 && e.spans[k-1].ext == nil && e.spans[k-1].off+e.spans[k-1].n == off {
		e.spans[k-1].n += n
	} else {
		e.spans = append(e.spans, span{off: off, n: n})
	}
	return e.buf[off : off+n]
}

// Byte appends one byte.
func (e *BodyEnc) Byte(b byte) { e.grow(1)[0] = b }

// Uvarint appends an unsigned varint.
func (e *BodyEnc) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	copy(e.grow(n), tmp[:n])
}

// Varint appends a zigzag signed varint.
func (e *BodyEnc) Varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	copy(e.grow(n), tmp[:n])
}

// Bool appends a bool as one byte.
func (e *BodyEnc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// F64 appends a float64 as its IEEE-754 bits.
func (e *BodyEnc) F64(v float64) {
	binary.BigEndian.PutUint64(e.grow(8), math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *BodyEnc) String(s string) {
	e.Uvarint(uint64(len(s)))
	copy(e.grow(len(s)), s)
}

// Bytes appends a length-prefixed byte slice, copying it into scratch.
// Use RawBytes for payloads large enough to ship zero-copy.
func (e *BodyEnc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	copy(e.grow(len(b)), b)
}

// RawBytes appends a length-prefixed byte slice without copying when it
// is large: the frame records a reference and the writev flush reads
// the caller's bytes directly — the zero-copy media path. The caller
// must not mutate b until the message is written.
func (e *BodyEnc) RawBytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.raw(b)
}

// Fixed appends b with no length prefix: a field whose width both ends
// know, such as a content digest.
func (e *BodyEnc) Fixed(b []byte) { copy(e.grow(len(b)), b) }

// raw appends b with no length prefix, by reference when it is large
// (the same contract as RawBytes).
func (e *BodyEnc) raw(b []byte) {
	if len(b) == 0 {
		return
	}
	if len(b) < externThreshold {
		copy(e.grow(len(b)), b)
		return
	}
	e.spans = append(e.spans, span{ext: b})
}

// size sums the encoded length across spans.
func (e *BodyEnc) size() int {
	n := 0
	for _, s := range e.spans {
		if s.ext != nil {
			n += len(s.ext)
		} else {
			n += s.n
		}
	}
	return n
}

// Flatten copies the encoding into one newly-owned []byte — the shape a
// shared push encoding needs (long-lived, fanned out to N peers).
func (e *BodyEnc) Flatten() []byte {
	out := make([]byte, 0, e.size())
	for _, s := range e.spans {
		if s.ext != nil {
			out = append(out, s.ext...)
		} else {
			out = append(out, e.buf[s.off:s.off+s.n]...)
		}
	}
	return out
}

// BodyEncoder is implemented by request/response bodies with a binary
// codec. AppendBody writes the body's fields in declaration order.
type BodyEncoder interface {
	AppendBody(e *BodyEnc)
}

// MarshalBody binary-encodes v into one newly-owned byte slice through
// a pooled encoder — the shape a shared fan-out payload needs (flat,
// long-lived, handed to many peers by reference).
func MarshalBody(v BodyEncoder) []byte {
	e := getBodyEnc()
	v.AppendBody(e)
	out := e.Flatten()
	putBodyEnc(e)
	return out
}

// Dec is the binary decoder over one frame payload. Errors latch: after
// the first failure every read returns zero values and Err reports the
// failure, so codecs chain reads without per-field checks. Byte-slice
// reads alias the input buffer, which saves the copy: a response payload
// owns an exact-size buffer, a request payload is valid until its
// handler returns (the server reads it into a pooled frame) and a push
// body only during the push handler's call (see Body), so whatever
// aliases either must be copied by whoever keeps it.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{b: data} }

// Err reports the first decode failure, if any.
func (d *Dec) Err() error { return d.err }

// Len reports the unread byte count.
func (d *Dec) Len() int { return len(d.b) - d.off }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = errFrameTruncated
	}
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Count reads the element count of a count-prefixed run. Every element
// of every run takes at least one byte, so a count beyond the unread
// bytes fails the decode here, before the caller sizes anything by it.
func (d *Dec) Count() uint64 {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.fail()
		return 0
	}
	return n
}

// Varint reads a zigzag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Bool reads a bool.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// F64 reads a float64.
func (d *Dec) F64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bytes reads a length-prefixed byte slice, aliasing the input buffer.
// A nil slice comes back for zero length.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// Fixed fills out with the next len(out) bytes (see BodyEnc.Fixed).
func (d *Dec) Fixed(out []byte) {
	if d.err != nil || len(out) > len(d.b)-d.off {
		d.fail()
		return
	}
	d.off += copy(out, d.b[d.off:])
}

// String reads a length-prefixed string (a copy, by string semantics).
func (d *Dec) String() string { return string(d.Bytes()) }

// StringOver reads a length-prefixed string as String does, but returns
// prev itself, with nothing allocated, when the bytes spell it: a decode
// over a used value (Typed's pooled request) keeps a field its last
// request had too.
func (d *Dec) StringOver(prev string) string {
	b := d.Bytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// BodyDecoder is implemented by bodies with a binary codec. DecodeBody
// reads the fields AppendBody wrote, in the same order, and returns
// d.Err() (plus any semantic validation of its own).
type BodyDecoder interface {
	DecodeBody(d *Dec) error
}

// decs recycles DecodeBodyBytes' decoders: a Dec handed to DecodeBody
// through the interface escapes, so a fresh one would be an allocation
// per request and per reply.
var decs = sync.Pool{New: func() any { return new(Dec) }}

// DecodeBodyBytes decodes a binary-encoded payload into v and verifies
// the payload was consumed exactly. DecodeBody must not keep its
// decoder: it goes back to a pool when the call returns.
func DecodeBodyBytes(data []byte, v BodyDecoder) error {
	d := decs.Get().(*Dec)
	*d = Dec{b: data}
	err := v.DecodeBody(d)
	rest := d.Len()
	*d = Dec{}
	decs.Put(d)
	if err != nil {
		return fmt.Errorf("wire: decode body %T: %w", v, err)
	}
	if rest != 0 {
		return fmt.Errorf("wire: decode body %T: %d trailing bytes", v, rest)
	}
	return nil
}

// Body is one received push payload — what a PushHandler gets. Data is
// valid only during the handler's call: the client parses a push frame
// where it lies in the connection's read buffer, and the next frame
// overwrites it. A handler that keeps the bytes, or anything decoded
// from them that aliases them (Dec.Bytes), copies them.
type Body struct {
	Data []byte
}

// Decode unmarshals the payload into v.
func (b Body) Decode(v BodyDecoder) error { return DecodeBodyBytes(b.Data, v) }

// --- frame encode/parse ---------------------------------------------------

// appendFrameHeader renders the frame body header (everything before
// the payload) for env into dst.
func appendFrameHeader(dst []byte, env *envelope) []byte {
	dst = append(dst, byte(env.Kind))
	dst = binary.AppendUvarint(dst, env.ID)
	dst = binary.AppendUvarint(dst, env.Trace)
	if code, ok := methodCode(env.Method); ok {
		dst = binary.BigEndian.AppendUint16(dst, code)
	} else {
		dst = binary.BigEndian.AppendUint16(dst, methodNoCode)
		dst = binary.AppendUvarint(dst, uint64(len(env.Method)))
		dst = append(dst, env.Method...)
	}
	if env.Kind == kindResponse {
		dst = append(dst, byte(env.Status))
	}
	return dst
}

// parseFrame decodes one frame body (the bytes after the length prefix)
// into env. The payload aliases buf: readFrame hands over an exact-size
// buffer it allocated, readRequest a pooled frame, readReply a pooled
// reply buffer, peekFrame the reader's own buffer.
func parseFrame(buf []byte) (envelope, error) {
	var env envelope
	d := NewDec(buf)
	env.Kind = msgKind(d.Byte())
	env.ID = d.Uvarint()
	env.Trace = d.Uvarint()
	hi, lo := d.Byte(), d.Byte()
	code := uint16(hi)<<8 | uint16(lo)
	if code == methodNoCode {
		env.Method = d.String()
	} else {
		m, ok := methodName(code)
		if d.err == nil && !ok {
			return env, fmt.Errorf("wire: unknown method code %d", code)
		}
		env.Method = m
	}
	if env.Kind == kindResponse {
		env.Status = status(d.Byte())
	}
	if err := d.Err(); err != nil {
		return env, err
	}
	if env.Kind > kindPush {
		return env, fmt.Errorf("wire: bad frame kind %d", env.Kind)
	}
	if env.Status > statusUnavailable {
		return env, fmt.Errorf("wire: bad response status %d", env.Status)
	}
	env.Payload = buf[len(buf)-d.Len():]
	return env, nil
}

// readFrame reads one length-prefixed frame, allocating an exact-size
// buffer the decoded envelope's payload aliases.
func readFrame(r io.Reader) (envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return envelope{}, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return envelope{}, err
	}
	return readBody(r, make([]byte, n))
}

// readBody reads a frame body, its length prefix already consumed, into
// buf, which is exactly its length, and parses it there.
func readBody(r io.Reader, buf []byte) (envelope, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, err
	}
	return parseFrame(buf)
}

// peekLen returns the length of br's next frame, from its prefix, which
// it leaves in br.
func peekLen(br *bufio.Reader) (int, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return frameLen(hdr)
}

// frameLen checks a frame's length prefix.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameSize {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// peekFrame reads the next frame from br. A frame that fits br's buffer
// is parsed where it lies: the envelope's payload aliases br's buffer,
// and the caller discards the frame's n bytes once it is done with it. A
// larger frame takes readFrame's exact-size buffer and comes back with n
// 0, already consumed.
func peekFrame(br *bufio.Reader) (env envelope, n int, err error) {
	size, err := peekLen(br)
	if err != nil {
		return envelope{}, 0, err
	}
	if 4+size > br.Size() {
		env, err = readFrame(br)
		return env, 0, err
	}
	frame, err := br.Peek(4 + size)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, 0, err
	}
	env, err = parseFrame(frame[4:])
	return env, 4 + size, err
}
