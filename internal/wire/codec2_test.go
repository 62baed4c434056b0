package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// fakeConn is a net.Conn whose writes land in a buffer — enough for the
// vecWriter, which only ever writes.
type fakeConn struct {
	bytes.Buffer
}

func (*fakeConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (*fakeConn) Close() error                     { return nil }
func (*fakeConn) LocalAddr() net.Addr              { return nil }
func (*fakeConn) RemoteAddr() net.Addr             { return nil }
func (*fakeConn) SetDeadline(time.Time) error      { return nil }
func (*fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (*fakeConn) SetWriteDeadline(time.Time) error { return nil }

func TestPreambleRoundTrip(t *testing.T) {
	for _, ver := range []uint8{0, ProtoV2, 7} {
		b := appendPreamble(nil, ver)
		if len(b) != preambleLen {
			t.Fatalf("preamble length %d, want %d", len(b), preambleLen)
		}
		if b[0] != 0 {
			t.Fatal("preamble must open with 0x00")
		}
		got, ok := parsePreamble(b)
		if !ok || got != ver {
			t.Errorf("parsePreamble(appendPreamble(%d)) = %d, %v", ver, got, ok)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{0x00},
		{0x00, 'M', 'M', '2'},
		{0x01, 'M', 'M', '2', 2},
		{0x00, 'M', 'M', '3', 2},
		{0x00, 'X', 'M', '2', 2},
		{0x00, 'M', 'M', '2', 2, 0},
	} {
		if _, ok := parsePreamble(bad); ok {
			t.Errorf("parsePreamble(%v) accepted", bad)
		}
	}
}

func TestNegotiate(t *testing.T) {
	for peer := 0; peer <= 255; peer++ {
		ver, ok := negotiate(uint8(peer))
		if peer < ProtoV2 {
			// 0 was the gob stream, 1 never shipped: both are refused.
			if ok {
				t.Errorf("negotiate(%d) accepted version %d", peer, ver)
			}
			continue
		}
		// A peer from the future degrades to the version we implement.
		if !ok || ver != ProtoV2 {
			t.Errorf("negotiate(%d) = %d, %v, want %d", peer, ver, ok, ProtoV2)
		}
	}
}

func TestBodyEncRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, externThreshold*3)
	e := getBodyEnc()
	e.Byte(0x42)
	e.Uvarint(0)
	e.Uvarint(1<<63 + 17)
	e.Varint(-40000)
	e.Varint(12345)
	e.Bool(true)
	e.Bool(false)
	e.F64(-2.718281828)
	e.String("")
	e.String("hello, 世界")
	e.Bytes(nil)
	e.Bytes([]byte{1, 2, 3})
	e.RawBytes([]byte("small")) // under threshold: copied to scratch
	e.RawBytes(big)             // over threshold: external reference
	flat := e.Flatten()
	putBodyEnc(e)

	d := NewDec(flat)
	if v := d.Byte(); v != 0x42 {
		t.Errorf("Byte = %#x", v)
	}
	if v := d.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<63+17 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -40000 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.Varint(); v != 12345 {
		t.Errorf("Varint = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if v := d.F64(); v != -2.718281828 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("String = %q", v)
	}
	if v := d.String(); v != "hello, 世界" {
		t.Errorf("String = %q", v)
	}
	if v := d.Bytes(); v != nil {
		t.Errorf("nil Bytes = %v", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.Bytes(); string(v) != "small" {
		t.Errorf("small RawBytes = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, big) {
		t.Errorf("big RawBytes: %d bytes", len(v))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("%d trailing bytes", d.Len())
	}
}

// TestBodyEncZeroCopy checks a large RawBytes payload is recorded as a
// reference to the caller's array, not copied into encoder scratch.
func TestBodyEncZeroCopy(t *testing.T) {
	big := bytes.Repeat([]byte{7}, externThreshold)
	e := getBodyEnc()
	e.String("header")
	e.RawBytes(big)
	defer putBodyEnc(e)
	var ext [][]byte
	for _, s := range e.spans {
		if s.ext != nil {
			ext = append(ext, s.ext)
		}
	}
	if len(ext) != 1 {
		t.Fatalf("%d external spans, want 1", len(ext))
	}
	if &ext[0][0] != &big[0] {
		t.Error("external span does not alias the caller's payload")
	}
	// And the segment list the writer flushes exposes the same aliasing.
	found := false
	for _, seg := range e.segments() {
		if len(seg) == len(big) && &seg[0] == &big[0] {
			found = true
		}
	}
	if !found {
		t.Error("segments() copied the large payload")
	}
}

// TestDecErrorLatch checks a truncated read poisons the decoder instead
// of panicking or returning garbage on later reads.
func TestDecErrorLatch(t *testing.T) {
	d := NewDec([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if v := d.Bytes(); v != nil {
		t.Errorf("truncated Bytes = %v", v)
	}
	if d.Err() == nil {
		t.Fatal("no latched error")
	}
	if v := d.Uvarint(); v != 0 {
		t.Errorf("post-error Uvarint = %d", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("post-error String = %q", v)
	}
}

// roundTripFrame pushes env through the batched v2 writer and reads the
// frame back.
func roundTripFrame(t *testing.T, env envelope) envelope {
	t.Helper()
	var conn fakeConn
	w := newVecWriter(&conn, nil)
	w.encodeFrame(&env)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&conn.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	RegisterMethodCode(900, "codec2test.coded")
	big := bytes.Repeat([]byte{0xCD}, externThreshold*2)
	cases := []envelope{
		{Kind: kindRequest, ID: 1, Method: "codec2test.coded", Payload: []byte("small")},
		{Kind: kindResponse, ID: 1 << 40, Trace: 77, Method: "codec2test.coded", Err: "boom", Payload: nil},
		{Kind: kindPush, Method: "no.such.code", Payload: big},
		{Kind: kindRequest, ID: 3, Method: "", Payload: []byte{0}},
	}
	for i, env := range cases {
		got := roundTripFrame(t, env)
		if got.Kind != env.Kind || got.ID != env.ID || got.Trace != env.Trace ||
			got.Method != env.Method || got.Err != env.Err {
			t.Errorf("case %d: %+v -> %+v", i, env, got)
		}
		if !bytes.Equal(got.Payload, env.Payload) {
			t.Errorf("case %d: payload %d bytes -> %d bytes", i, len(env.Payload), len(got.Payload))
		}
	}
}

// TestFrameBatchCoalesces checks several frames written before one
// flush land in a single writev-style write and all parse back.
func TestFrameBatchCoalesces(t *testing.T) {
	st := NewStats()
	var conn fakeConn
	w := newVecWriter(&conn, st)
	const k = 10
	payload := bytes.Repeat([]byte{9}, externThreshold+1)
	for i := 0; i < k; i++ {
		env := envelope{Kind: kindPush, ID: uint64(i), Method: "batch.test", Payload: payload}
		w.encodeFrame(&env)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if flushes := st.Counter(CounterWriterFlushes); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
	for i := 0; i < k; i++ {
		env, err := readFrame(&conn.Buffer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.ID != uint64(i) || !bytes.Equal(env.Payload, payload) {
			t.Fatalf("frame %d corrupted: id=%d payload=%d bytes", i, env.ID, len(env.Payload))
		}
	}
	if conn.Buffer.Len() != 0 {
		t.Errorf("%d trailing bytes after %d frames", conn.Buffer.Len(), k)
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Oversized length prefix must fail before allocating the body.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: %v", err)
	}
	// A frame too short to hold kind+enc.
	tiny := []byte{0, 0, 0, 1, 0}
	if _, err := readFrame(bytes.NewReader(tiny)); err == nil {
		t.Error("1-byte frame accepted")
	}
	// Truncated body: length prefix promises more than the stream holds.
	trunc := []byte{0, 0, 0, 50, 0, 0, 1}
	if _, err := readFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestParseFrameRejectsGarbage(t *testing.T) {
	if _, err := parseFrame([]byte{200, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad kind accepted")
	}
	// The enc byte has one legal value; 0 was the retired gob escape.
	for _, enc := range []byte{0, 2, 9} {
		if _, err := parseFrame([]byte{0, enc, 0, 0, 0xFF, 0xFF, 0, 0}); err == nil {
			t.Errorf("payload encoding %d accepted", enc)
		}
	}
	if _, err := parseFrame([]byte{0, EncBinary, 0, 0, 0xFF, 0xFF, 0, 0}); err != nil {
		t.Errorf("well-formed frame rejected: %v", err)
	}
	// Unknown method code.
	if _, err := parseFrame([]byte{0, EncBinary, 0, 0, 0xEE, 0xEE, 0}); err == nil {
		t.Error("unknown method code accepted")
	}
}

// TestVersionNegotiationEndToEnd covers the live handshake over real
// connections: the one agreement (v2, also for a client from the
// future) and the two refusals — a client that opens without the
// preamble or offers less than v2 is disconnected, and a client whose
// server chooses less than v2 fails its calls with ErrProtoVersion.
func TestVersionNegotiationEndToEnd(t *testing.T) {
	_, addr := startServer(t)
	dial := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	// expectClosed requires the server to hang up without sending a byte.
	expectClosed := func(t *testing.T, conn net.Conn) {
		t.Helper()
		if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("server answered a refused handshake: %d bytes, %v", n, err)
		}
	}

	t.Run("v2-v2", func(t *testing.T) {
		c := NewClient(dial(t))
		var r echoReply
		if err := c.Call("echo", &echoArgs{Text: "ping", N: 3}, &r); err != nil || r.Text != "ping" || r.N != 6 {
			t.Fatalf("echo = %+v, %v", r, err)
		}
	})
	t.Run("future-client", func(t *testing.T) {
		conn := dial(t)
		if _, err := conn.Write(appendPreamble(nil, 9)); err != nil {
			t.Fatal(err)
		}
		var rep [preambleLen]byte
		if _, err := io.ReadFull(conn, rep[:]); err != nil {
			t.Fatal(err)
		}
		if ver, ok := parsePreamble(rep[:]); !ok || ver != ProtoV2 {
			t.Fatalf("reply = %v (%d, %v), want version %d", rep, ver, ok, ProtoV2)
		}
	})
	t.Run("gob-client", func(t *testing.T) {
		// No preamble: the first bytes of what used to be a gob stream.
		conn := dial(t)
		if _, err := conn.Write([]byte{0x2a, 0xff, 0x81, 0x03, 0x01}); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn)
		// A preamble offering less than v2 is refused the same way.
		for _, ver := range []uint8{0, 1} {
			conn := dial(t)
			if _, err := conn.Write(appendPreamble(nil, ver)); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, conn)
		}
	})
	t.Run("gob-server", func(t *testing.T) {
		// A server that answers the preamble with a version below 2.
		for _, ver := range []uint8{0, 1} {
			sc, cc := net.Pipe()
			go func() {
				defer sc.Close()
				var pre [preambleLen]byte
				if _, err := io.ReadFull(sc, pre[:]); err != nil {
					return
				}
				_, _ = sc.Write(appendPreamble(nil, ver))
				_, _ = io.Copy(io.Discard, sc)
			}()
			c := NewClient(cc)
			err := c.CallTimeout(5*time.Second, "echo", &echoArgs{}, nil)
			if !errors.Is(err, ErrProtoVersion) || !errors.Is(err, ErrClosed) {
				t.Errorf("server chose %d: call error = %v, want ErrProtoVersion and ErrClosed", ver, err)
			}
			if !errors.Is(c.Err(), ErrProtoVersion) {
				t.Errorf("server chose %d: Err = %v", ver, c.Err())
			}
			c.Close()
		}
	})
}
