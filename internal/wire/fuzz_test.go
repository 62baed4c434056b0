package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// FuzzParseFrame throws arbitrary frame bodies at the frame parser.
// The parser must never panic, and an accepted frame must satisfy its
// structural invariants (valid kind, a status only on a response,
// payload inside the input) and parse back to itself once re-encoded. A
// failed response whose payload decodes keeps its status and its
// error's fields through a re-encode of that error and a second parse.
func FuzzParseFrame(f *testing.F) {
	RegisterMethodCode(901, "fuzz.coded")
	// Seed with well-formed frames of each shape plus truncations.
	for _, env := range []envelope{
		{Kind: kindRequest, ID: 1, Method: "fuzz.coded", Payload: []byte("hi")},
		failedResponse(errors.New("nope")),
		{Kind: kindPush, Method: "inline.name", Payload: bytes.Repeat([]byte{3}, 600)},
	} {
		buf := appendFrameHeader(nil, &env)
		buf = append(buf, env.Payload...)
		f.Add(buf)
		if len(buf) > 3 {
			f.Add(buf[:3])
			f.Add(buf[:len(buf)-1])
		}
	}
	f.Add([]byte{0, 0, 0, 0xEE, 0xEE})                        // unknown method code
	f.Add([]byte{200, 0, 0, 0})                               // bad kind
	f.Add([]byte{byte(kindResponse), 0, 0, 0xFF, 0xFF, 0, 9}) // bad status
	f.Add([]byte{0, 1, 0, 0, 0xFF, 0xFF, 0, 0})               // a v2 frame, enc byte and all
	for _, env := range statusSeeds() {
		f.Add(append(appendFrameHeader(nil, &env), env.Payload...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := parseFrame(data)
		if err != nil {
			return
		}
		if env.Kind > kindPush {
			t.Fatalf("accepted frame with kind %d", env.Kind)
		}
		if env.Status > statusUnavailable || env.Kind != kindResponse && env.Status != statusOK {
			t.Fatalf("accepted frame of kind %d with status %d", env.Kind, env.Status)
		}
		if len(env.Payload) > len(data) {
			t.Fatalf("payload %d bytes from a %d-byte frame", len(env.Payload), len(data))
		}
		again, err := parseFrame(append(appendFrameHeader(nil, &env), env.Payload...))
		if err != nil || !sameFrame(again, env) {
			t.Fatalf("%+v re-encoded parses as %+v, %v", env, again, err)
		}
		if env.Status == statusOK {
			return
		}
		cause := failure(env.Status, env.Payload)
		if errors.Is(cause, errFrameTruncated) {
			return // the payload is not the error its status names
		}
		resp := failedResponse(cause)
		again, err = parseFrame(append(appendFrameHeader(nil, &resp), resp.Payload...))
		if err != nil || again.Status != env.Status {
			t.Fatalf("%#v (status %d) re-encoded parses with status %d, %v", cause, env.Status, again.Status, err)
		}
		if got := failure(again.Status, again.Payload); !reflect.DeepEqual(got, cause) {
			t.Fatalf("%#v re-encoded decodes as %#v", cause, got)
		}
	})
}

// failedResponse is a response failing with err, its payload flat.
func failedResponse(err error) envelope {
	env := envelope{Kind: kindResponse, ID: 9, Trace: 4, Method: "fuzz.coded"}
	env.fail(err)
	env.Payload = env.body.Flatten()
	putBodyEnc(env.body)
	env.body = nil
	return env
}

// statusSeeds is one response per status, each with its fields.
func statusSeeds() []envelope {
	return []envelope{
		{Kind: kindResponse, ID: 3, Trace: 4, Method: "fuzz.coded", Payload: []byte{2, 'o', 'k'}},
		failedResponse(errors.New("wire: redirect to node x at y")),
		failedResponse(&OverloadError{Reason: ShedReasonDeadline, RetryAfter: 1500 * time.Microsecond}),
		failedResponse(&RedirectError{Node: "n2", Addr: "127.0.0.1:7002"}),
		failedResponse(&UnavailableError{Node: "n1", Reason: "no cluster majority"}),
	}
}

// sameFrame reports whether two parsed frames carry the same fields.
func sameFrame(a, b envelope) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Trace == b.Trace && a.Method == b.Method &&
		a.Status == b.Status && bytes.Equal(a.Payload, b.Payload)
}

// FuzzReadFrame drives the full framed reader — length prefix included
// — with arbitrary streams: malformed lengths, truncated bodies, and
// mutations of valid frames. It must never panic and must reject any
// length prefix past maxFrameSize before allocating. The same stream
// then goes through the server's reader, readRequest, which reads a frame
// up to frameClass into a pooled buffer, and through the client's,
// peekFrame over a small bufio.Reader, which parses a frame that fits its
// buffer in place and reads a larger one into an exact buffer, or, for a
// response whose caller takes a pooled frame, into a reply buffer
// (largeReply, readReply): frame by frame, each must decode what
// readFrame decodes and stop where and how readFrame stops.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload int) []byte {
		env := envelope{Kind: kindPush, ID: 5, Method: "inline.name", Payload: bytes.Repeat([]byte{7}, payload)}
		body := appendFrameHeader(nil, &env)
		body = append(body, env.Payload...)
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	valid := frame(7)
	f.Add(valid)
	f.Add(valid[:5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0}) // hostile length
	f.Add([]byte{0, 0, 0, 0})                // zero length
	f.Add(appendPreamble(nil, ProtoV3))      // a preamble is not a frame
	// Frames on both sides of fuzzReaderSize, back to back, then cut.
	var stream []byte
	for _, n := range []int{7, fuzzReaderSize - len(frame(0)), fuzzReaderSize - len(frame(0)) + 1, 3 * fuzzReaderSize, 0} {
		stream = append(stream, frame(n)...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	for _, env := range statusSeeds() {
		body := append(appendFrameHeader(nil, &env), env.Payload...)
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []envelope
		var wantErr error
		r := bytes.NewReader(data)
		for {
			env, err := readFrame(r)
			if err != nil {
				wantErr = err
				break
			}
			if got := len(env.Payload); got > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte stream", got, len(data))
			}
			want = append(want, env)
		}
		same := func(how string, i int, env, w envelope) {
			if !sameFrame(env, w) {
				t.Fatalf("frame %d %s %+v, in an exact buffer %+v", i, how, env, w)
			}
		}
		sr := bufio.NewReaderSize(bytes.NewReader(data), fuzzReaderSize)
		for i := 0; ; i++ {
			env, frame, err := readRequest(sr)
			if err != nil {
				if i != len(want) || err.Error() != wantErr.Error() {
					t.Fatalf("server reader: frame %d failed with %v; exact buffers: %d frames, then %v", i, err, len(want), wantErr)
				}
				break
			}
			if i == len(want) {
				t.Fatalf("server reader: frame %d decoded; exact buffers stopped there with %v", i, wantErr)
			}
			same("from the server's reader", i, env, want[i])
			putFrame(frame)
		}
		// The client's read of responses whose callers all take pooled
		// frames (Client.nextFrame, every call pooled).
		cr := bufio.NewReaderSize(bytes.NewReader(data), fuzzReaderSize)
		for i := 0; ; i++ {
			var env envelope
			var inPlace int
			var err error
			if _, size, ok := largeReply(cr); ok {
				env, err = readReply(cr, size)
			} else {
				env, inPlace, err = peekFrame(cr)
			}
			if err != nil {
				if i != len(want) || err.Error() != wantErr.Error() {
					t.Fatalf("pooled replies: frame %d failed with %v; exact buffers: %d frames, then %v", i, err, len(want), wantErr)
				}
				break
			}
			if i == len(want) {
				t.Fatalf("pooled replies: frame %d decoded; exact buffers stopped there with %v", i, wantErr)
			}
			same("into a pooled reply", i, env, want[i])
			putReply(env.frame)
			if _, err := cr.Discard(inPlace); err != nil {
				t.Fatalf("discard frame %d: %v", i, err)
			}
		}
		br := bufio.NewReaderSize(bytes.NewReader(data), fuzzReaderSize)
		for i := 0; ; i++ {
			env, inPlace, err := peekFrame(br)
			if err != nil {
				if i != len(want) || err.Error() != wantErr.Error() {
					t.Fatalf("in place: frame %d failed with %v; exact buffers: %d frames, then %v", i, err, len(want), wantErr)
				}
				return
			}
			if i == len(want) {
				t.Fatalf("in place: frame %d decoded; exact buffers stopped there with %v", i, wantErr)
			}
			same("in place", i, env, want[i])
			if _, err := br.Discard(inPlace); err != nil {
				t.Fatalf("discard frame %d: %v", i, err)
			}
		}
	})
}

// fuzzReaderSize is the buffer of the reader FuzzReadFrame runs
// peekFrame over: small, so short inputs reach both of its paths.
const fuzzReaderSize = 64

// FuzzHandshake exercises the negotiation preamble parser and version
// pick under arbitrary bytes and version skew: parsing must never
// panic, and negotiation can only yield ProtoV3 or a refusal — on the
// server (fed the client's offer) and on the client (fed the server's
// reply) alike; a v2 peer is refused on either side. The second argument
// is the version a skewed server answers with.
func FuzzHandshake(f *testing.F) {
	f.Add(appendPreamble(nil, ProtoV3), uint8(ProtoV3))
	f.Add(appendPreamble(nil, 0), uint8(ProtoV3))
	f.Add(appendPreamble(nil, 9), uint8(0))
	f.Add([]byte{0x00, 'M', 'M', '3', 2}, uint8(ProtoV3))
	f.Add([]byte("gob..."), uint8(ProtoV3))
	f.Add(appendPreamble(nil, 1), uint8(1))
	f.Add(appendPreamble(nil, 2), uint8(2)) // a v2 peer on both sides
	f.Fuzz(func(t *testing.T, preamble []byte, serverReply uint8) {
		check := func(side string, offered uint8) {
			got, ok := negotiate(offered)
			switch {
			case ok && got != ProtoV3:
				t.Fatalf("%s: negotiate(%d) = %d: not the version we implement", side, offered, got)
			case ok && offered < ProtoV3:
				t.Fatalf("%s: negotiate(%d) agreed above the peer's maximum", side, offered)
			case !ok && offered >= ProtoV3:
				t.Fatalf("%s: negotiate(%d) refused a capable peer", side, offered)
			}
		}
		check("client", serverReply)
		clientMax, ok := parsePreamble(preamble)
		if !ok {
			return
		}
		check("server", clientMax)
		// The reply must parse back to the chosen version.
		if got, ok := negotiate(clientMax); ok {
			rv, okp := parsePreamble(appendPreamble(nil, got))
			if !okp || rv != got {
				t.Fatalf("reply preamble round trip: %d, %v", rv, okp)
			}
		}
	})
}
