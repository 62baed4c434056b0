package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mmconf/internal/obs"
)

// coverBody is a minimal BodyEncoder/BodyDecoder pair for exercising
// the pooled body codec entry points directly (the real codecs live in
// internal/proto and don't count toward this package's coverage).
type coverBody struct {
	A uint64
	B int64
	S string
	P []byte
}

func (b *coverBody) AppendBody(e *BodyEnc) {
	e.Uvarint(b.A)
	e.Varint(b.B)
	e.String(b.S)
	e.Bytes(b.P)
}

func (b *coverBody) DecodeBody(d *Dec) error {
	b.A = d.Uvarint()
	b.B = d.Varint()
	b.S = d.String()
	b.P = d.Bytes()
	return d.Err()
}

func TestMarshalBodyRoundTrip(t *testing.T) {
	in := &coverBody{A: 1 << 40, B: -77, S: "hello", P: []byte{9, 8, 7}}
	data := MarshalBody(in)
	var out coverBody
	if err := DecodeBodyBytes(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || out.S != in.S || string(out.P) != string(in.P) {
		t.Errorf("round trip: got %+v want %+v", out, *in)
	}
	// Trailing bytes must be rejected.
	if err := DecodeBodyBytes(append(data, 0), &out); err == nil {
		t.Error("trailing byte accepted")
	}
	// Truncation must be rejected.
	if err := DecodeBodyBytes(data[:len(data)-1], &out); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestPoolStatsCounts(t *testing.T) {
	g0, m0 := PoolStats()
	for i := 0; i < 8; i++ {
		MarshalBody(&coverBody{S: "x"})
	}
	g1, m1 := PoolStats()
	if g1 < g0+8 {
		t.Errorf("gets %d -> %d, want +8 at least", g0, g1)
	}
	if m1 < m0 || m1 > g1 {
		t.Errorf("misses %d out of range (gets %d, was %d)", m1, g1, m0)
	}
}

func TestBodyDecode(t *testing.T) {
	body := Body{Data: MarshalBody(&coverBody{A: 5, S: "b"})}
	var out coverBody
	if err := body.Decode(&out); err != nil || out.A != 5 || out.S != "b" {
		t.Errorf("decode: %v %+v", err, out)
	}
	// A payload that is some other body's encoding is an error, not a
	// silently wrong value.
	var wrong echoArgs
	if err := body.Decode(&wrong); err == nil {
		t.Error("coverBody payload decoded as echoArgs")
	}
}

func TestServerVersionSurface(t *testing.T) {
	s, addr := startServer(t)
	st := NewStats()
	s.SetStats(st)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rep echoReply
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.CallCtx(ctx, "echo", &echoArgs{Text: "t", N: 2}, &rep); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("live client Err = %v", err)
	}
	if rep.N != 4 {
		t.Fatalf("echo reply N = %d", rep.N)
	}
	if got := st.Counter(CounterConns); got != 1 {
		t.Errorf("%s = %d, want 1", CounterConns, got)
	}
	if peers, queued := s.WriteBacklog(); peers != 1 || queued != 0 {
		t.Errorf("WriteBacklog = %d peers, %d queued", peers, queued)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	s := NewServer()
	s.Register("trace", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		return &echoReply{N: int(ContextTraceID(ctx))}, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := obs.ContextWithID(context.Background(), 424242)
	var rep echoReply
	if err := c.CallCtx(ctx, "trace", &echoArgs{}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.N != 424242 {
		t.Errorf("handler saw trace id %d, want 424242", rep.N)
	}
	// Outside a dispatch the accessor reports zero.
	if id := ContextTraceID(context.Background()); id != 0 {
		t.Errorf("ContextTraceID outside dispatch = %d", id)
	}
}

func TestDecTruncatedPrimitives(t *testing.T) {
	// A lone continuation byte is an unterminated varint.
	d := NewDec([]byte{0x80})
	if d.Varint(); d.Err() == nil {
		t.Error("truncated varint accepted")
	}
	// Err latches: subsequent reads keep failing and return zeros.
	if v := d.Varint(); v != 0 || d.Err() == nil {
		t.Errorf("latched Varint = %d, err %v", v, d.Err())
	}
	d = NewDec([]byte{1, 2, 3})
	if d.F64(); d.Err() == nil {
		t.Error("truncated float accepted")
	}
}

func TestRegisterMethodCodePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	RegisterMethodCode(910, "covertest.a")
	RegisterMethodCode(910, "covertest.a") // same binding again is fine
	expectPanic("reserved code", func() { RegisterMethodCode(0xFFFF, "covertest.r") })
	expectPanic("code collision", func() { RegisterMethodCode(910, "covertest.b") })
	expectPanic("name collision", func() { RegisterMethodCode(911, "covertest.a") })
}

func TestPutBodyEncDropsOversized(t *testing.T) {
	e := getBodyEnc()
	// Grow scratch past the pool's 1 MiB retention cap; the small
	// RawBytes path copies into scratch (no external spans).
	chunk := make([]byte, externThreshold-1)
	for i := 0; i < (1<<20)/len(chunk)+2; i++ {
		e.RawBytes(chunk)
	}
	if cap(e.buf) <= 1<<20 {
		t.Fatalf("scratch cap %d not oversized", cap(e.buf))
	}
	putBodyEnc(e) // must drop, not pin: nothing to assert beyond not panicking
	putBodyEnc(nil)
}

func TestClientProtoVersionDeadConn(t *testing.T) {
	server, client := net.Pipe()
	server.Close() // handshake can never complete
	c := NewClient(client)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.CallCtx(ctx, "echo", &echoArgs{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call on a conn that died mid-handshake = %v, want ErrClosed", err)
	}
}

func TestStatsSurface(t *testing.T) {
	st := NewStats()
	if st.Method("m") != (MethodStats{}) || len(st.Snapshot()) != 0 {
		t.Error("a method with no request has a record")
	}
	rec := st.Recorder("m")
	rec.Observe(10*time.Millisecond, nil)
	rec.Observe(30*time.Millisecond, errors.New("deliberate failure"))
	ms := st.Method("m")
	if ms.Requests != 2 || ms.Errors != 1 {
		t.Fatalf("Method = %+v", ms)
	}
	if got := ms.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
	if (MethodStats{}).Mean() != 0 {
		t.Error("zero-value Mean != 0")
	}
	if st.Histogram("m") == nil || st.Histogram("absent") != nil {
		t.Error("Histogram lookup wrong")
	}
	if all := st.Counters(); len(all) != 0 {
		t.Errorf("fresh Counters = %v", all)
	}
	c := st.Handle("c")
	if all := st.Counters(); len(all) != 1 || all["c"] != 0 {
		t.Errorf("Counters of a resolved, unused handle = %v", all)
	}
	c.Add(2)
	st.Handle("c").Add(3) // the same counter
	if all := st.Counters(); all["c"] != 5 || st.Counter("c") != 5 || st.Counter("absent") != 0 {
		t.Errorf("Counters = %v", all)
	}
}

func TestPriorityString(t *testing.T) {
	names := map[Priority]string{PriorityControl: "control", PriorityInteractive: "interactive", PriorityBulk: "bulk"}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("Priority(%d).String() = %q, want %q", p, got, want)
		}
	}
	if got := Priority(99).String(); got == "" {
		t.Error("unknown priority stringified to empty")
	}
}
