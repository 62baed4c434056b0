package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
)

// blobReply is a reply that takes a pooled frame: Data aliases it.
type blobReply struct {
	ReplyFrame
	Data []byte
}

func (r *blobReply) AppendBody(e *BodyEnc)   { e.RawBytes(r.Data) }
func (r *blobReply) DecodeBody(d *Dec) error { r.Data = d.Bytes(); return d.Err() }

// plainBlob is the same body without the frame.
type plainBlob struct{ Data []byte }

func (r *plainBlob) AppendBody(e *BodyEnc)   { e.RawBytes(r.Data) }
func (r *plainBlob) DecodeBody(d *Dec) error { r.Data = d.Bytes(); return d.Err() }

// blobClient is a client of a server whose "blob" method answers N bytes
// of the value N%251 and whose "fail" method fails.
func blobClient(t *testing.T) *Client {
	t.Helper()
	s := NewServer()
	s.Register("blob", func(_ context.Context, _ *Peer, payload []byte) (any, error) {
		var a echoArgs
		if err := DecodeBodyBytes(payload, &a); err != nil {
			return nil, err
		}
		return &plainBlob{Data: bytes.Repeat([]byte{byte(a.N % 251)}, a.N)}, nil
	})
	s.Register("fail", func(context.Context, *Peer, []byte) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c
}

// A reply is read into a pooled frame only when its type embeds
// ReplyFrame, its caller asked for one (Pool) and it is worth a size
// class — whether it is copied out of the reader or read whole past it —
// and the reply then holds the frame, whose bytes read as poison once
// released. A plain reply, one that asked for no frame, CallRaw's and a
// failed one read as they always have.
func TestReplyFrameTakenOnlyByAHolder(t *testing.T) {
	c := blobClient(t)
	ctx := context.Background()
	for _, n := range []int{100, 8 << 10, readBufferSize + 1, 256 << 10} {
		want := bytes.Repeat([]byte{byte(n % 251)}, n)
		gets, _ := ReplyPoolStats()
		var plain plainBlob
		if err := c.CallCtx(ctx, "blob", &echoArgs{N: n}, &plain); err != nil || !bytes.Equal(plain.Data, want) {
			t.Fatalf("%d bytes into a plain reply: %d bytes, %v", n, len(plain.Data), err)
		}
		var kept blobReply
		if err := c.CallCtx(ctx, "blob", &echoArgs{N: n}, &kept); err != nil || !bytes.Equal(kept.Data, want) || kept.f != nil {
			t.Fatalf("%d bytes into a reply that asked for no frame: %d bytes, %v, holding a frame: %v", n, len(kept.Data), err, kept.f != nil)
		}
		raw, err := c.CallRaw(ctx, "blob", MarshalBody(&echoArgs{N: n}))
		if err != nil || len(raw) < n {
			t.Fatalf("%d bytes by CallRaw: %d bytes, %v", n, len(raw), err)
		}
		if now, _ := ReplyPoolStats(); now != gets {
			t.Fatalf("%d bytes: a plain reply, a kept one and CallRaw took %d pooled frames", n, now-gets)
		}

		var r blobReply
		r.Pool()
		if err := c.CallCtx(ctx, "blob", &echoArgs{N: n}, &r); err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("%d bytes into a holder: %d bytes, %v", n, len(r.Data), err)
		}
		if pooled := n >= minReply; (r.f != nil) != pooled {
			t.Fatalf("%d bytes: the reply holds a pooled frame: %v, want %v", n, r.f != nil, pooled)
		}
		if r.f == nil {
			continue
		}
		if got, _ := ReplyPoolStats(); got != gets+1 {
			t.Fatalf("%d bytes: %d pooled frames taken, want 1", n, got-gets)
		}
		data := r.Data
		r.Release()
		r.Release() // a second Release does nothing
		if r.f != nil || bytes.Count(data, []byte{0xA5}) != len(data) {
			t.Fatalf("%d bytes: a released reply still reads %v…", n, data[:4])
		}
	}
	var r blobReply
	r.Pool()
	var re *RemoteError
	if err := c.CallCtx(ctx, "fail", nil, &r); !errors.As(err, &re) || r.f != nil {
		t.Fatalf("a failed call: %v, holding a frame: %v", err, r.f != nil)
	}
}

// Every size class holds what it is taken for and at most a quarter
// more, and is the smallest that holds it.
func TestReplyClassesWithinAQuarter(t *testing.T) {
	if got := replySize(replyClasses - 1); got != maxReply {
		t.Fatalf("the largest class holds %d bytes, want %d", got, maxReply)
	}
	check := func(n int) {
		i := replyClass(n)
		size := replySize(i)
		if size < n || 4*size > 5*n && n > minReply || i > 0 && replySize(i-1) >= n {
			t.Fatalf("%d bytes get class %d of %d bytes", n, i, size)
		}
	}
	for n := minReply; n <= 1<<16; n++ {
		check(n)
	}
	for i := 0; i < replyClasses; i++ {
		s := replySize(i)
		check(s)
		if s > minReply {
			check(s - 1)
		}
		if i+1 < replyClasses {
			check(s + 1)
		}
	}
}
