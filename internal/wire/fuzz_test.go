package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseFrame throws arbitrary frame bodies at the v2 frame parser.
// The parser must never panic, and an accepted frame must satisfy its
// structural invariants (valid kind/encoding, payload inside the input).
func FuzzParseFrame(f *testing.F) {
	RegisterMethodCode(901, "fuzz.coded")
	// Seed with well-formed frames of each shape plus truncations.
	for _, env := range []envelope{
		{Kind: kindRequest, ID: 1, Method: "fuzz.coded", Payload: []byte("hi")},
		{Kind: kindResponse, ID: 9, Trace: 4, Method: "fuzz.coded", Err: "nope"},
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
	f.Add([]byte{0, 0, 0xEE, 0xEE})             // unknown method code
	f.Add([]byte{200, 0, 0, 0})                 // bad kind
	f.Add([]byte{0, 9, 0, 0})                   // bad encoding
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0, 0}) // the retired gob encoding byte
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := parseFrame(data)
		if err != nil {
			return
		}
		if env.Kind > kindPush {
			t.Fatalf("accepted frame with kind %d", env.Kind)
		}
		if data[1] != EncBinary {
			t.Fatalf("accepted frame with encoding %d", data[1])
		}
		if len(env.Payload) > len(data) {
			t.Fatalf("payload %d bytes from a %d-byte frame", len(env.Payload), len(data))
		}
	})
}

// FuzzReadFrame drives the full framed reader — length prefix included
// — with arbitrary streams: malformed lengths, truncated bodies, and
// mutations of valid frames. It must never panic and must reject any
// length prefix past maxFrameSize before allocating. The same stream
// then goes through the server's reader, readRequest, which reads a frame
// up to frameClass into a pooled buffer, and through the client's,
// peekFrame over a small bufio.Reader, which parses a frame that fits its
// buffer in place and reads a larger one into an exact buffer: frame by
// frame, each must decode what readFrame decodes and stop where and how
// readFrame stops.
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
	f.Add(appendPreamble(nil, ProtoV2))      // a preamble is not a frame
	// Frames on both sides of fuzzReaderSize, back to back, then cut.
	var stream []byte
	for _, n := range []int{7, fuzzReaderSize - len(frame(0)), fuzzReaderSize - len(frame(0)) + 1, 3 * fuzzReaderSize, 0} {
		stream = append(stream, frame(n)...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
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
			if env.Kind != w.Kind || env.ID != w.ID || env.Trace != w.Trace || env.Method != w.Method || env.Err != w.Err || !bytes.Equal(env.Payload, w.Payload) {
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
// panic, and negotiation can only yield ProtoV2 or a refusal — on the
// server (fed the client's offer) and on the client (fed the server's
// reply) alike. The second argument is the version a skewed server
// answers with.
func FuzzHandshake(f *testing.F) {
	f.Add(appendPreamble(nil, ProtoV2), uint8(ProtoV2))
	f.Add(appendPreamble(nil, 0), uint8(ProtoV2))
	f.Add(appendPreamble(nil, 9), uint8(0))
	f.Add([]byte{0x00, 'M', 'M', '3', 2}, uint8(ProtoV2))
	f.Add([]byte("gob..."), uint8(ProtoV2))
	f.Add(appendPreamble(nil, 1), uint8(1))
	f.Fuzz(func(t *testing.T, preamble []byte, serverReply uint8) {
		check := func(side string, offered uint8) {
			got, ok := negotiate(offered)
			switch {
			case ok && got != ProtoV2:
				t.Fatalf("%s: negotiate(%d) = %d: not the version we implement", side, offered, got)
			case ok && offered < ProtoV2:
				t.Fatalf("%s: negotiate(%d) agreed above the peer's maximum", side, offered)
			case !ok && offered >= ProtoV2:
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
