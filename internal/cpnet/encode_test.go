package cpnet

import (
	"bytes"
	"strings"
	"testing"

	"mmconf/internal/wire"
)

func TestBinaryRoundTrip(t *testing.T) {
	n := fig2Network(t)
	back, err := decodeNetwork(wire.MarshalBody(n))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Text() != n.Text() {
		t.Fatalf("round trip changed network:\n%s\nvs\n%s", back.Text(), n.Text())
	}
	o1, _ := n.OptimalOutcome()
	o2, err := back.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if o1.String() != o2.String() {
		t.Fatalf("round trip changed optimum: %v vs %v", o1, o2)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := decodeNetwork([]byte("not a network at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := decodeNetwork(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestCPTKeyOutsideAssignmentSpace: a CPT row keyed past the product of
// its parents' domains answers no parent assignment. Neither the decoder
// nor Validate may accept it — every solve in the context it should
// cover would fail with a missing row.
func TestCPTKeyOutsideAssignmentSpace(t *testing.T) {
	n := New()
	for _, name := range []string{"a", "b"} {
		if err := n.AddVariable(name, []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
	}
	mustSetParents(t, n, "b", "a")
	mustPref(t, n, "a", nil, "x", "y")
	mustPref(t, n, "b", Outcome{"a": "x"}, "x", "y")
	mustPref(t, n, "b", Outcome{"a": "y"}, "y", "x")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b := n.nodes[n.index["b"]]
	b.cpt[7] = b.cpt[1]
	delete(b.cpt, 1)
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted a CPT keyed outside its parents' assignments")
	}
	if back, err := decodeNetwork(wire.MarshalBody(n)); err == nil {
		t.Errorf("decoder accepted a CPT keyed outside its parents' assignments:\n%s", back.Text())
	}
}

// FuzzNetworkDecode throws arbitrary bytes at the network decoder,
// which reads every document the store or the server hands over. A body
// that decodes must re-encode to bytes that decode to the same network;
// one that also validates must solve.
func FuzzNetworkDecode(f *testing.F) {
	for _, n := range []*Network{fig2Network(f), New()} {
		f.Add(wire.MarshalBody(n))
	}
	f.Add([]byte{1, 1, 'a', 1, 1, 'x', 1, 0, 1, 0, 1, 0})         // its own parent
	f.Add([]byte{1, 1, 'a', 1, 1, 'x', 0, 1, 7, 1, 0})            // a key outside the space
	f.Add([]byte{1, 1, 'a', 2, 1, 'x', 1, 'y', 0, 1, 0, 2, 0, 0}) // not a permutation

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNetwork(data)
		if err != nil {
			return
		}
		out := wire.MarshalBody(n)
		back, err := decodeNetwork(out)
		if err != nil {
			t.Fatalf("re-encoded network does not decode: %v", err)
		}
		if again := wire.MarshalBody(back); !bytes.Equal(again, out) {
			t.Fatalf("re-encode is not a fixed point:\n%s\nvs\n%s", n.Text(), back.Text())
		}
		if n.Validate() == nil {
			if _, err := n.OptimalOutcome(); err != nil {
				t.Fatalf("a valid network does not solve: %v\n%s", err, n.Text())
			}
		}
	})
}

func TestTextRoundTrip(t *testing.T) {
	n := fig2Network(t)
	text := n.Text()
	back, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\ninput:\n%s", err, text)
	}
	if back.Text() != text {
		t.Fatalf("text round trip not stable:\n%s\nvs\n%s", back.Text(), text)
	}
	o1, _ := n.OptimalOutcome()
	o2, _ := back.OptimalOutcome()
	if o1.String() != o2.String() {
		t.Fatalf("text round trip changed optimum: %v vs %v", o1, o2)
	}
}

func TestParseTextAuthoring(t *testing.T) {
	src := `
# A two-variable document: an image and a caption.
var image { full icon hidden }
var caption { shown hidden }
parents caption ( image )
pref image : full > icon > hidden
pref caption [ image=full ] : shown > hidden
pref caption [ image=icon ] : shown > hidden
pref caption [ image=hidden ] : hidden > shown
`
	n, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if opt["image"] != "full" || opt["caption"] != "shown" {
		t.Errorf("optimum = %v", opt)
	}
	o, err := n.OptimalCompletion(Outcome{"image": "hidden"})
	if err != nil {
		t.Fatal(err)
	}
	if o["caption"] != "hidden" {
		t.Errorf("caption under hidden image = %q", o["caption"])
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown statement", "frobnicate x"},
		{"malformed var", "var x y z"},
		{"malformed parents", "parents x y"},
		{"pref missing colon", "var x { a b }\npref x a > b"},
		{"pref dangling gt", "var x { a b }\npref x : a >"},
		{"pref bad sep", "var x { a b }\npref x : a < b"},
		{"unclosed context", "var x { a b }\npref x [ : a > b"},
		{"bad context term", "var x { a b }\nvar y { c d }\nparents y ( x )\npref y [ x ] : c > d"},
		{"incomplete cpt", "var x { a b }"},
		{"pref alone", "pref"},
		{"empty pref", "var x { a b }\npref x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(c.src)); err == nil {
				t.Errorf("accepted:\n%s", c.src)
			}
		})
	}
}

func TestParseTextCommentsAndBlank(t *testing.T) {
	src := "\n\n# only comments\nvar x { a }\npref x : a # trailing comment\n\n"
	n, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if n.Len() != 1 {
		t.Errorf("Len = %d", n.Len())
	}
}

// decodeNetwork decodes a network encoded by its AppendBody.
func decodeNetwork(data []byte) (*Network, error) {
	n := New()
	if err := wire.DecodeBodyBytes(data, n); err != nil {
		return nil, err
	}
	return n, nil
}
