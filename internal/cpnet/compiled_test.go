package cpnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestResolveEqualsCompletion walks random networks through evidence
// steps — a variable pinned, re-pinned to another value or released — and
// holds each step's change-driven re-solve, made from the previous step's
// completion, to a full OptimalCompletion of the step's evidence. Between
// some steps an AddOperationVariable grows the network: the walk then
// recompiles, solves whole once, and propagates again from there. Each
// re-solve must also report exactly the variables whose value moved, in
// topological order.
func TestResolveEqualsCompletion(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 9)
		var r Resolver
		ev := Outcome{}
		c, err := n.Compile()
		if err != nil {
			t.Fatal(err)
		}
		pins, base := complete(t, c, ev)
		for step := 0; step < 40; step++ {
			vars := n.Variables()
			if rng.Intn(10) == 0 {
				comp := vars[rng.Intn(len(vars))]
				if _, err := n.AddOperationVariable(comp.Name, fmt.Sprint("op", step), comp.Domain[rng.Intn(len(comp.Domain))]); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if c, err = n.Compile(); err != nil {
					t.Fatal(err)
				}
				pins, base = complete(t, c, ev)
				continue
			}
			v := vars[rng.Intn(len(vars))]
			if rng.Intn(3) == 0 {
				delete(ev, v.Name)
			} else {
				ev[v.Name] = v.Domain[rng.Intn(len(v.Domain))]
			}
			next, err := c.Evidence(ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			var changed []int
			for i := range next {
				if next[i] != pins[i] {
					changed = append(changed, i)
				}
			}
			got := make([]uint8, c.Len())
			moved, err := r.Resolve(c, base, next, changed, got)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := n.OptimalCompletion(ev)
			if err != nil {
				t.Fatal(err)
			}
			if o := c.Outcome(got); !reflect.DeepEqual(o, want) {
				t.Fatalf("seed %d step %d, evidence %v: re-solved %v, completion %v", seed, step, ev, o, want)
			}
			var differ []int
			for _, i := range c.topo {
				if got[i] != base[i] {
					differ = append(differ, int(i))
				}
			}
			if !reflect.DeepEqual(moved, differ) && len(moved)+len(differ) > 0 {
				t.Fatalf("seed %d step %d: re-solve reports %v moved, %v did", seed, step, moved, differ)
			}
			pins, base = next, got
		}
	}
}

// complete solves the evidence whole under c.
func complete(t *testing.T, c *Compiled, ev Outcome) (pins, assign []uint8) {
	t.Helper()
	pins, err := c.Evidence(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign = make([]uint8, c.Len())
	if err := c.Complete(pins, assign); err != nil {
		t.Fatal(err)
	}
	return pins, assign
}

// TestCompiledIsASnapshot: a compiled network keeps solving as it was
// compiled while the network it came from is edited, and the network
// compiles afresh after each edit, a preference row included.
func TestCompiledIsASnapshot(t *testing.T) {
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
	before, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := n.Compile(); again != before {
		t.Error("an unchanged network compiled twice")
	}
	mustPref(t, n, "b", Outcome{"a": "x"}, "y", "x")
	if mid, _ := n.Compile(); mid == before {
		t.Error("a changed preference row left the compiled form in place")
	}
	if _, err := n.AddOperationVariable("b", "zoom", "y"); err != nil {
		t.Fatal(err)
	}
	after, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if after == before || before.Len() != 2 || after.Len() != 3 {
		t.Fatalf("recompiled %v (%d variables) from %d", after != before, after.Len(), before.Len())
	}
	_, old := complete(t, before, nil)
	_, now := complete(t, after, nil)
	if got := before.Outcome(old); got.String() != "a=x b=x" {
		t.Errorf("the snapshot solves to %v after the edit", got)
	}
	if got := after.Outcome(now); got.String() != "a=x b=y b/zoom=applied" {
		t.Errorf("the edited network solves to %v", got)
	}
}

// TestHasValue: a value check reads the variable's value index.
func TestHasValue(t *testing.T) {
	n := New()
	if err := n.AddVariable("ct", []string{"full", "icon"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		variable, value string
		want            bool
	}{{"ct", "icon", true}, {"ct", "hidden", false}, {"xray", "icon", false}} {
		if got := n.HasValue(tc.variable, tc.value); got != tc.want {
			t.Errorf("HasValue(%q, %q) = %v", tc.variable, tc.value, got)
		}
	}
}
