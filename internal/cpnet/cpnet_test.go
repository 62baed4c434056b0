package cpnet

import (
	"strings"
	"testing"
)

// fig2Network builds the example CP-network of Figure 2 of the paper:
//
//	c1, c2 are roots; c3 depends on both; c4 and c5 depend on c3.
//	CPT(c1) = [c11 > c21]
//	CPT(c2) = [c22 > c12]
//	CPT(c3) = [(c11^c12) v (c21^c22): c13 > c23 ; (c11^c22) v (c21^c12): c23 > c13]
//	CPT(c4) = [c13: c14 > c24 ; c23: c24 > c14]
//	CPT(c5) = [c13: c15 > c25 ; c23: c25 > c15]
func fig2Network(t testing.TB) *Network {
	t.Helper()
	n := New()
	for _, v := range []string{"c1", "c2", "c3", "c4", "c5"} {
		suffix := v[1:]
		if err := n.AddVariable(v, []string{"c1" + suffix, "c2" + suffix}); err != nil {
			t.Fatalf("AddVariable(%s): %v", v, err)
		}
	}
	mustSetParents(t, n, "c3", "c1", "c2")
	mustSetParents(t, n, "c4", "c3")
	mustSetParents(t, n, "c5", "c3")

	mustPref(t, n, "c1", nil, "c11", "c21")
	mustPref(t, n, "c2", nil, "c22", "c12")
	mustPref(t, n, "c3", Outcome{"c1": "c11", "c2": "c12"}, "c13", "c23")
	mustPref(t, n, "c3", Outcome{"c1": "c21", "c2": "c22"}, "c13", "c23")
	mustPref(t, n, "c3", Outcome{"c1": "c11", "c2": "c22"}, "c23", "c13")
	mustPref(t, n, "c3", Outcome{"c1": "c21", "c2": "c12"}, "c23", "c13")
	mustPref(t, n, "c4", Outcome{"c3": "c13"}, "c14", "c24")
	mustPref(t, n, "c4", Outcome{"c3": "c23"}, "c24", "c14")
	mustPref(t, n, "c5", Outcome{"c3": "c13"}, "c15", "c25")
	mustPref(t, n, "c5", Outcome{"c3": "c23"}, "c25", "c15")

	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func mustSetParents(t testing.TB, n *Network, name string, parents ...string) {
	t.Helper()
	if err := n.SetParents(name, parents); err != nil {
		t.Fatalf("SetParents(%s, %v): %v", name, parents, err)
	}
}

func mustPref(t testing.TB, n *Network, name string, ctx Outcome, order ...string) {
	t.Helper()
	if err := n.SetPreference(name, ctx, order); err != nil {
		t.Fatalf("SetPreference(%s, %v, %v): %v", name, ctx, order, err)
	}
}

func TestFig2OptimalOutcome(t *testing.T) {
	n := fig2Network(t)
	got, err := n.OptimalOutcome()
	if err != nil {
		t.Fatalf("OptimalOutcome: %v", err)
	}
	want := Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c24", "c5": "c25"}
	if got.String() != want.String() {
		t.Fatalf("optimal outcome = %v, want %v", got, want)
	}
}

func TestFig2OptimalCompletion(t *testing.T) {
	n := fig2Network(t)
	tests := []struct {
		name     string
		evidence Outcome
		want     Outcome
	}{
		{
			name:     "pin c3 to its less-preferred value",
			evidence: Outcome{"c3": "c13"},
			want:     Outcome{"c1": "c11", "c2": "c22", "c3": "c13", "c4": "c14", "c5": "c15"},
		},
		{
			name:     "pin c2 flips c3 back",
			evidence: Outcome{"c2": "c12"},
			want:     Outcome{"c1": "c11", "c2": "c12", "c3": "c13", "c4": "c14", "c5": "c15"},
		},
		{
			name:     "pin a leaf leaves ancestors optimal",
			evidence: Outcome{"c4": "c14"},
			want:     Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c14", "c5": "c25"},
		},
		{
			name:     "empty evidence equals the optimum",
			evidence: nil,
			want:     Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c24", "c5": "c25"},
		},
		{
			name:     "full evidence returns itself",
			evidence: Outcome{"c1": "c21", "c2": "c12", "c3": "c13", "c4": "c24", "c5": "c25"},
			want:     Outcome{"c1": "c21", "c2": "c12", "c3": "c13", "c4": "c24", "c5": "c25"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := n.OptimalCompletion(tc.evidence)
			if err != nil {
				t.Fatalf("OptimalCompletion: %v", err)
			}
			if got.String() != tc.want.String() {
				t.Fatalf("completion = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCompletionErrors(t *testing.T) {
	n := fig2Network(t)
	if _, err := n.OptimalCompletion(Outcome{"nosuch": "x"}); err == nil {
		t.Fatal("unknown evidence variable accepted")
	}
	if _, err := n.OptimalCompletion(Outcome{"c1": "nosuch"}); err == nil {
		t.Fatal("unknown evidence value accepted")
	}
}

func TestConstructionErrors(t *testing.T) {
	n := New()
	if err := n.AddVariable("", []string{"a"}); err == nil {
		t.Error("empty name accepted")
	}
	if err := n.AddVariable("a", nil); err == nil {
		t.Error("empty domain accepted")
	}
	if err := n.AddVariable("a", []string{"x", "x"}); err == nil {
		t.Error("duplicate value accepted")
	}
	if err := n.AddVariable("a", []string{"x", ""}); err == nil {
		t.Error("empty value accepted")
	}
	if err := n.AddVariable("a", []string{"x", "y"}); err != nil {
		t.Fatalf("AddVariable: %v", err)
	}
	if err := n.AddVariable("a", []string{"x"}); err == nil {
		t.Error("duplicate variable accepted")
	}
	if err := n.SetParents("a", []string{"a"}); err == nil {
		t.Error("self-parent accepted")
	}
	if err := n.SetParents("a", []string{"missing"}); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := n.AddVariable("b", []string{"x", "y"}); err != nil {
		t.Fatalf("AddVariable: %v", err)
	}
	if err := n.SetParents("b", []string{"a", "a"}); err == nil {
		t.Error("duplicate parent accepted")
	}
	if err := n.SetParents("b", []string{"a"}); err != nil {
		t.Fatalf("SetParents: %v", err)
	}
	if err := n.SetParents("a", []string{"b"}); err == nil {
		t.Error("cycle accepted")
	}
	// After the rejected cycle, the old (empty) parent set must survive.
	ps, err := n.Parents("a")
	if err != nil || len(ps) != 0 {
		t.Errorf("parents of a after rollback = %v, %v; want empty", ps, err)
	}
}

func TestPreferenceErrors(t *testing.T) {
	n := New()
	if err := n.AddVariable("a", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable("b", []string{"u", "v"}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetParents("b", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		desc  string
		name  string
		ctx   Outcome
		order []string
	}{
		{"unknown variable", "zzz", nil, []string{"x", "y"}},
		{"short order", "a", nil, []string{"x"}},
		{"repeated value", "a", nil, []string{"x", "x"}},
		{"unknown value", "a", nil, []string{"x", "q"}},
		{"context on root", "a", Outcome{"b": "u"}, []string{"x", "y"}},
		{"missing context", "b", nil, []string{"u", "v"}},
		{"wrong context var", "b", Outcome{"c": "x"}, []string{"u", "v"}},
		{"bad context value", "b", Outcome{"a": "q"}, []string{"u", "v"}},
	}
	for _, c := range cases {
		if err := n.SetPreference(c.name, c.ctx, c.order); err == nil {
			t.Errorf("%s: accepted", c.desc)
		}
	}
}

func TestValidateIncomplete(t *testing.T) {
	n := New()
	if err := n.Validate(); err == nil {
		t.Error("empty network validated")
	}
	if err := n.AddVariable("a", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err == nil {
		t.Error("variable without CPT validated")
	}
	if err := n.SetUnconditional("a", []string{"y", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("complete network rejected: %v", err)
	}
	// A conditioned variable with only one of two rows must fail.
	if err := n.AddVariable("b", []string{"u", "v"}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetParents("b", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	mustPref(t, n, "b", Outcome{"a": "x"}, "u", "v")
	if err := n.Validate(); err == nil {
		t.Error("half-filled CPT validated")
	}
	mustPref(t, n, "b", Outcome{"a": "y"}, "v", "u")
	if err := n.Validate(); err != nil {
		t.Errorf("full CPT rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	n := fig2Network(t)
	if n.Len() != 5 {
		t.Errorf("Len = %d, want 5", n.Len())
	}
	if !n.HasVariable("c3") || n.HasVariable("zzz") {
		t.Error("HasVariable wrong")
	}
	dom, err := n.Domain("c3")
	if err != nil || strings.Join(dom, ",") != "c13,c23" {
		t.Errorf("Domain(c3) = %v, %v", dom, err)
	}
	ps, err := n.Parents("c3")
	if err != nil || strings.Join(ps, ",") != "c1,c2" {
		t.Errorf("Parents(c3) = %v, %v", ps, err)
	}
	if _, err := n.Domain("zzz"); err == nil {
		t.Error("Domain of unknown variable accepted")
	}
	if _, err := n.Parents("zzz"); err == nil {
		t.Error("Parents of unknown variable accepted")
	}
	if n.OutcomeCount() != 32 {
		t.Errorf("OutcomeCount = %d, want 32", n.OutcomeCount())
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := fig2Network(t)
	c := n.Clone()
	if c.Text() != n.Text() {
		t.Fatal("clone text differs from original")
	}
	// Mutating the clone must not affect the original.
	mustPref(t, c, "c1", nil, "c21", "c11")
	o1, _ := n.OptimalOutcome()
	o2, _ := c.OptimalOutcome()
	if o1["c1"] != "c11" {
		t.Errorf("original network changed by clone mutation: c1=%s", o1["c1"])
	}
	if o2["c1"] != "c21" {
		t.Errorf("clone mutation did not take: c1=%s", o2["c1"])
	}
}

func TestForEachOutcome(t *testing.T) {
	n := fig2Network(t)
	seen := make(map[string]bool)
	n.ForEachOutcome(func(o Outcome) bool {
		seen[o.String()] = true
		return true
	})
	if len(seen) != 32 {
		t.Fatalf("enumerated %d outcomes, want 32", len(seen))
	}
	// Early stop.
	count := 0
	n.ForEachOutcome(func(o Outcome) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestConsistent(t *testing.T) {
	n := fig2Network(t)
	ok := Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c24", "c5": "c25"}
	if err := n.Consistent(ok); err != nil {
		t.Errorf("consistent outcome rejected: %v", err)
	}
	if err := n.Consistent(Outcome{"c1": "c11"}); err == nil {
		t.Error("partial outcome accepted")
	}
	bad := ok.Clone()
	bad["c1"] = "zzz"
	if err := n.Consistent(bad); err == nil {
		t.Error("illegal value accepted")
	}
}

func TestOutcomeCloneAndString(t *testing.T) {
	o := Outcome{"b": "2", "a": "1"}
	if o.String() != "a=1 b=2" {
		t.Errorf("String = %q", o.String())
	}
	c := o.Clone()
	c["a"] = "9"
	if o["a"] != "1" {
		t.Error("Clone is shallow")
	}
}

func TestMaxDomainSize(t *testing.T) {
	n := New()
	dom := make([]string, MaxDomainSize+1)
	for i := range dom {
		dom[i] = strings.Repeat("v", 1) + string(rune('0'+i%10)) + "_" + itoa(i)
	}
	if err := n.AddVariable("big", dom); err == nil {
		t.Error("oversized domain accepted")
	}
	if err := n.AddVariable("ok", dom[:MaxDomainSize]); err != nil {
		t.Errorf("max-size domain rejected: %v", err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestPreferenceAccessor(t *testing.T) {
	n := fig2Network(t)
	order, err := n.Preference("c3", Outcome{"c1": "c11", "c2": "c22"})
	if err != nil || strings.Join(order, ",") != "c23,c13" {
		t.Errorf("Preference = %v, %v", order, err)
	}
	order, err = n.Preference("c1", nil)
	if err != nil || strings.Join(order, ",") != "c11,c21" {
		t.Errorf("unconditional Preference = %v, %v", order, err)
	}
	if _, err := n.Preference("nosuch", nil); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := n.Preference("c3", Outcome{"c1": "c11"}); err == nil {
		t.Error("partial context accepted")
	}
}

func TestForEachContext(t *testing.T) {
	n := fig2Network(t)
	count := 0
	err := n.ForEachContext("c3", func(ctx Outcome) bool {
		count++
		if ctx["c1"] == "" || ctx["c2"] == "" {
			t.Errorf("incomplete context %v", ctx)
		}
		return true
	})
	if err != nil || count != 4 {
		t.Errorf("contexts = %d, %v", count, err)
	}
	// Root variable: one empty context.
	count = 0
	n.ForEachContext("c1", func(ctx Outcome) bool {
		count++
		if len(ctx) != 0 {
			t.Errorf("root context %v", ctx)
		}
		return true
	})
	if count != 1 {
		t.Errorf("root contexts = %d", count)
	}
	// Early stop.
	count = 0
	n.ForEachContext("c3", func(ctx Outcome) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	if err := n.ForEachContext("nosuch", func(Outcome) bool { return true }); err == nil {
		t.Error("unknown variable accepted")
	}
}
