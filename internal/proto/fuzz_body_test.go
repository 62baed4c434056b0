package proto

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mmconf/internal/wire"
)

// fuzzBodies is methodBodies in a fixed order, each method's request then
// its response: the first byte of a FuzzBodyCodecs input indexes it.
func fuzzBodies() []body {
	methods := make([]string, 0, len(methodBodies))
	for m := range methodBodies {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	out := make([]body, 0, 2*len(methods))
	for _, m := range methods {
		out = append(out, methodBodies[m].req, methodBodies[m].resp)
	}
	return out
}

// FuzzBodyCodecs throws arbitrary bytes at every body codec of the
// protocol. The input's first byte picks a method's request or response
// from methodBodies (which TestEveryMethodHasCodecs holds to the
// registry, so a new method is fuzzed once it is registered); the rest is
// the body. A decoder must never panic, and a body it accepts must
// re-encode to bytes that decode to the same value. The two values are
// compared, not the bytes: maps encode in no fixed order.
func FuzzBodyCodecs(f *testing.F) {
	bodies := fuzzBodies()
	for i, b := range bodies {
		f.Add(append([]byte{byte(i)}, wire.MarshalBody(b)...))
	}
	// The populated cases of the codec table, where they are small: the
	// engine minimizes every input it keeps, and a multi-KB seed stalls it.
	for _, tc := range codecCases() {
		data := wire.MarshalBody(tc.in)
		if len(data) > 512 {
			continue
		}
		for i, b := range bodies {
			if reflect.TypeOf(b) == reflect.TypeOf(tc.in) {
				f.Add(append([]byte{byte(i)}, data...))
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		b := bodies[int(in[0])%len(bodies)]
		first := freshBody(b)
		if wire.DecodeBodyBytes(in[1:], first) != nil {
			return
		}
		second := freshBody(b)
		if err := wire.DecodeBodyBytes(wire.MarshalBody(first), second); err != nil {
			t.Fatalf("%T: accepted %x, and its re-encoding fails to decode: %v", b, in[1:], err)
		}
		// A NaN is the one value DeepEqual calls unequal to itself; fmt
		// prints it, and maps in key order.
		if !reflect.DeepEqual(first, second) && fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
			t.Fatalf("%T: re-encoding changed the body:\n first %+v\nsecond %+v", b, first, second)
		}
	})
}
