package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
)

// tallyArgs is a string-free request body: a count and a tag the decode
// aliases into the frame (Dec.Bytes).
type tallyArgs struct {
	N   uint64
	Tag []byte
}

func (a *tallyArgs) AppendBody(e *BodyEnc) {
	e.Uvarint(a.N)
	e.Bytes(a.Tag)
}

func (a *tallyArgs) DecodeBody(d *Dec) error {
	a.N = d.Uvarint()
	a.Tag = d.Bytes()
	return d.Err()
}

// rawConn is a handshaken connection to s that the test writes request
// frames to and reads response frames from itself, so that whatever a
// round trip allocates is the server's.
func rawConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(appendPreamble(nil, ProtoV3)); err != nil {
		t.Fatal(err)
	}
	var rep [preambleLen]byte
	if _, err := io.ReadFull(conn, rep[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// requestFrame is one length-prefixed request frame for method with
// body args.
func requestFrame(method string, args BodyEncoder) []byte {
	env := envelope{Kind: kindRequest, ID: 1, Trace: 7, Method: method, Payload: MarshalBody(args)}
	body := append(appendFrameHeader(nil, &env), env.Payload...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestTypedRequestAllocatesNothing: at steady state a typed request
// whose body holds no string allocates nothing on the server side. Its
// frame is a pooled buffer, its decoder a pooled Dec, its value the
// adapter's pooled Req, its context the worker's Request and its
// response body a pooled encoder. The test is the client: it writes a
// ready frame and reads the reply into a buffer of its own.
func TestTypedRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	RegisterMethodCode(920, "framepool.tally")
	var total atomic.Uint64
	s := NewServer()
	s.Register("framepool.tally", Typed(func(_ context.Context, _ *Peer, req *tallyArgs) (*None, error) {
		total.Add(req.N + uint64(len(req.Tag)))
		return nil, nil
	}))
	conn := rawConn(t, s)
	frame := requestFrame("framepool.tally", &tallyArgs{N: 3, Tag: []byte("0123456789abcdef")})
	var reply [64]byte
	call := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply[:4]); err != nil {
			t.Fatal(err)
		}
		n := binary.BigEndian.Uint32(reply[:4])
		if n > uint32(len(reply)) {
			t.Fatalf("a %d-byte reply to a request answered with nothing", n)
		}
		if _, err := io.ReadFull(conn, reply[:n]); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		call() // grow the worker's stack and fill the pools
	}
	if a := testing.AllocsPerRun(2000, call); a != 0 {
		t.Errorf("a string-free typed request allocates %v times on the server, want 0", a)
	}
	if got := total.Load(); got != 2101*19 {
		t.Errorf("the handler tallied %d, want %d", got, 2101*19)
	}
}

// TestRecycledFrameIsPoisoned: a request frame that fits the pool is
// recycled once its handler has returned, and in this package's tests
// (TestMain) it is overwritten first. A handler that kept an alias into
// its payload sees 0xA5 bytes by the next request; a frame too large for
// the pool is the handler's exact-size buffer, as before, and stays
// intact.
func TestRecycledFrameIsPoisoned(t *testing.T) {
	if !poisonFrames {
		t.Fatal("the package's TestMain did not turn frame poisoning on")
	}
	s := NewServer()
	var kept [][]byte
	s.Register("keep", func(_ context.Context, _ *Peer, payload []byte) (any, error) {
		kept = append(kept, payload)
		return nil, nil
	})
	s.Register("void", func(context.Context, *Peer, []byte) (any, error) { return nil, nil })
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	defer c.Close()
	small, large := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, frameClass+1)
	for _, p := range [][]byte{small, large} {
		if _, err := c.CallRaw(context.Background(), "keep", p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CallRaw(context.Background(), "void", nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept[0], bytes.Repeat([]byte{0xA5}, len(small))) {
		t.Errorf("a pooled frame kept past its handler reads %x, want 0xA5 throughout", kept[0][:8])
	}
	if !bytes.Equal(kept[1], large) {
		t.Error("a frame too large for the pool changed after its handler returned")
	}
}

// TestResponseReferringIntoItsFrame: a response may hand the request's
// own bytes back. Under 512 bytes the encode copies them, and the frame
// goes back to the pool only after that; from 512 on they ride the
// writer's batch by reference, so the frame stays out of the pool. Either
// way the writer, which runs after run has returned, sends what the
// handler returned, not the poison.
func TestResponseReferringIntoItsFrame(t *testing.T) {
	s := NewServer()
	s.Register("mirror", func(_ context.Context, _ *Peer, payload []byte) (any, error) {
		return RawResult(payload), nil
	})
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	defer c.Close()
	for i := range 20 {
		p := bytes.Repeat([]byte{byte(i)}, 64*(i+1)) // 64 B to 1 280 B
		got, err := c.CallRaw(context.Background(), "mirror", p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("call %d: the mirrored payload came back changed (%x...)", i, got[:8])
		}
	}
}
