package proto

import (
	"fmt"
	"reflect"
	"testing"

	"mmconf/internal/wire"
)

// TestDecodeIntoAUsedValue: the request adapter (wire.Typed) decodes a
// request into a value an earlier request of its method decoded into, so
// every body codec assigns every field. For each pair (a, b) of the codec
// table's cases of one type, the type's empty body among them, decoding
// b into a value that holds a gives what decoding b into a fresh value
// gives. A slice that comes back empty instead of nil counts as equal:
// ReplicateReq keeps its event array across frames on purpose.
func TestDecodeIntoAUsedValue(t *testing.T) {
	byType := make(map[reflect.Type][]body)
	add := func(b body) {
		byType[reflect.TypeOf(b)] = append(byType[reflect.TypeOf(b)], b)
	}
	for _, b := range fuzzBodies() {
		add(freshBody(b))
	}
	for _, tc := range codecCases() {
		add(tc.in)
	}
	decode := func(into body, from body) body {
		t.Helper()
		if err := wire.DecodeBodyBytes(wire.MarshalBody(from), into); err != nil {
			t.Fatalf("%T: %v", from, err)
		}
		return into
	}
	for _, vals := range byType {
		for _, a := range vals {
			for _, b := range vals {
				used := decode(decode(freshBody(a), a), b)
				fresh := decode(freshBody(b), b)
				if got, want := fmt.Sprintf("%+v", used), fmt.Sprintf("%+v", fresh); !reflect.DeepEqual(used, fresh) && got != want {
					t.Errorf("%T decoded over a used value:\n  got %.300s\n want %.300s", b, got, want)
				}
			}
		}
	}
}
