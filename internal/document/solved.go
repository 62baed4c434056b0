package document

import (
	"fmt"
	"slices"

	"mmconf/internal/cpnet"
)

// This file is the presentation path's one view representation. A Schema
// is the document compiled for solving; a Solved view is an assignment
// vector and a visibility vector over it. The engine keeps Solved views,
// re-solves them by change propagation, and the room diffs and encodes
// them; the View maps are built from one only where an API caller asks
// for them.

// Schema is a document compiled for solving: its network's compiled form
// and its component tree flattened in pre-order, each component with its
// variable, its parent, the extent of its subtree and its presentations.
// It is immutable, so a solve may read it while the document is edited.
type Schema struct {
	net *cpnet.Compiled
	// private lists the viewer-private variables of an overlay's schema;
	// they follow the network's in its vectors. Nil for a document's own.
	private []cpnet.Variable
	comps   []schemaComponent
	compIdx map[string]int
	// varComp maps a network variable to its component, or -1 for a
	// derived or tuning variable.
	varComp []int32
}

type schemaComponent struct {
	name     string
	variable int32 // network index of its variable, -1 for none
	parent   int32 // -1 for the root
	end      int32 // one past the last component of its subtree
	hidden   uint8 // the value index that hides it, or cpnet.Unpinned
	pres     []Presentation
}

// Schema compiles the document for solving.
func (d *Document) Schema() (*Schema, error) {
	net, err := d.Prefs.Compile()
	if err != nil {
		return nil, fmt.Errorf("document %s: %w", d.ID, err)
	}
	s := &Schema{net: net, compIdx: make(map[string]int), varComp: make([]int32, net.Len())}
	for i := range s.varComp {
		s.varComp[i] = -1
	}
	var walk func(c *Component, parent int32)
	walk = func(c *Component, parent int32) {
		j := int32(len(s.comps))
		sc := schemaComponent{name: c.Name, variable: -1, parent: parent, hidden: cpnet.Unpinned,
			pres: slices.Clone(c.Presentations)}
		if i, ok := net.Index(c.Name); ok {
			sc.variable = int32(i)
			s.varComp[i] = j
			if h, ok := net.ValueIndex(i, HiddenValue); ok {
				sc.hidden = uint8(h)
			}
		}
		s.comps = append(s.comps, sc)
		s.compIdx[c.Name] = int(j)
		for _, ch := range c.Children {
			walk(ch, j)
		}
		s.comps[j].end = int32(len(s.comps))
	}
	walk(d.Root, -1)
	return s, nil
}

// Network returns the compiled network the schema solves.
func (s *Schema) Network() *cpnet.Compiled { return s.net }

// Len returns the number of variables a view under the schema assigns.
func (s *Schema) Len() int { return s.net.Len() + len(s.private) }

// Variable returns variable i. Its domain is shared: read it only.
func (s *Schema) Variable(i int) cpnet.Variable {
	if i < s.net.Len() {
		return s.net.Variable(i)
	}
	return s.private[i-s.net.Len()]
}

// VariableIndex returns the position of the named variable.
func (s *Schema) VariableIndex(name string) (int, bool) {
	if i, ok := s.net.Index(name); ok {
		return i, true
	}
	for i, v := range s.private {
		if v.Name == name {
			return s.net.Len() + i, true
		}
	}
	return 0, false
}

// ComponentCount returns the number of components.
func (s *Schema) ComponentCount() int { return len(s.comps) }

// ComponentName returns the name of component j, in pre-order.
func (s *Schema) ComponentName(j int) string { return s.comps[j].name }

// ComponentIndex returns the pre-order position of the named component.
func (s *Schema) ComponentIndex(name string) (int, bool) {
	j, ok := s.compIdx[name]
	return j, ok
}

// withPrivate returns the schema of a viewer whose overlay adds the
// given private variables.
func (s *Schema) withPrivate(private []cpnet.Variable) *Schema {
	if len(private) == 0 {
		return s
	}
	ext := *s
	ext.private = private
	return &ext
}

// Solved is one solved view: a value index per schema variable and a
// visibility flag per component, read-only once made. The engine hands
// every viewer of an evidence class the same Solved, so identity tells
// views apart; View builds the maps an API caller reads.
type Solved struct {
	schema *Schema
	assign []uint8 // by variable
	vis    []uint8 // by component, pre-order: 1 when effectively rendered
	// inline holds both vectors when they fit, so a small document's view
	// is one allocation; a Solved is only ever handled by pointer.
	inline [40]uint8
}

// newSolved allocates a view under s: one buffer holds both vectors.
func (s *Schema) newSolved() *Solved {
	nv := s.Len()
	v := &Solved{schema: s}
	buf := v.inline[:]
	if n := nv + len(s.comps); n <= len(buf) {
		buf = buf[:n]
	} else {
		buf = make([]uint8, n)
	}
	v.assign, v.vis = buf[:nv:nv], buf[nv:]
	return v
}

// Schema returns the schema the view was solved under.
func (v *Solved) Schema() *Schema { return v.schema }

// ValueIndex returns the index of variable i's value in its domain.
func (v *Solved) ValueIndex(i int) int { return int(v.assign[i]) }

// Value returns variable i's value.
func (v *Solved) Value(i int) string { return v.schema.Variable(i).Domain[v.assign[i]] }

// Visible reports whether component j is effectively rendered.
func (v *Solved) Visible(j int) bool { return v.vis[j] != 0 }

// Presentation returns the presentation component j shows, if it is a
// component with presentations.
func (v *Solved) Presentation(j int) (Presentation, bool) {
	c := &v.schema.comps[j]
	if c.variable < 0 || int(v.assign[c.variable]) >= len(c.pres) {
		return Presentation{}, false
	}
	return c.pres[v.assign[c.variable]], true
}

// View builds the view's maps.
func (v *Solved) View() View {
	s := v.schema
	o := make(cpnet.Outcome, len(v.assign))
	for i, a := range v.assign {
		vr := s.Variable(i)
		o[vr.Name] = vr.Domain[a]
	}
	vis := make(map[string]bool, len(s.comps))
	for j := range s.comps {
		vis[s.comps[j].name] = v.vis[j] != 0
	}
	return View{Outcome: o, Visible: vis}
}

// visible derives component j's flag from its own value and its parent's
// flag: a component is rendered unless its value is the hidden one or an
// ancestor is hidden.
func (v *Solved) visible(j int) uint8 {
	c := &v.schema.comps[j]
	if c.parent >= 0 && v.vis[c.parent] == 0 {
		return 0
	}
	if c.variable >= 0 && v.assign[c.variable] == c.hidden {
		return 0
	}
	return 1
}

// deriveVisibility sets every component's flag, parents first.
func (v *Solved) deriveVisibility() {
	for j := range v.vis {
		v.vis[j] = v.visible(j)
	}
}

// Solve returns the view of the evidence vector pins (cpnet.Compiled
// Evidence or Pin under the schema's network), swept whole.
func (s *Schema) Solve(pins []uint8) (*Solved, error) {
	v := s.newSolved()
	if err := s.net.Complete(pins, v.assign); err != nil {
		return nil, err
	}
	v.deriveVisibility()
	return v, nil
}

// SolveOverlay returns the view of a viewer with a private overlay of the
// document's network, solved the map-based way (the overlay's own
// completion) and held in vectors of the schema extended by the
// overlay's private variables.
func (s *Schema) SolveOverlay(ov *cpnet.Overlay, evidence cpnet.Outcome) (*Solved, error) {
	o, err := ov.OptimalCompletion(evidence)
	if err != nil {
		return nil, err
	}
	v := s.withPrivate(ov.Private()).newSolved()
	for i := range v.assign {
		vr := v.schema.Variable(i)
		vi := slices.Index(vr.Domain, o[vr.Name])
		if vi < 0 {
			return nil, fmt.Errorf("document: overlay completion gives %q the value %q", vr.Name, o[vr.Name])
		}
		v.assign[i] = uint8(vi)
	}
	v.deriveVisibility()
	return v, nil
}

// A Solver re-solves views by change propagation, keeping its work space
// between calls. It is not safe for concurrent use; the zero value is
// ready.
type Solver struct {
	r     cpnet.Resolver
	roots []int
	diff  []int
}

// Resolve returns the view of pins derived from from, a view under the
// same document schema (no private variables) of evidence that differs
// from pins at most at the variables in changed. Only the variables a
// changed value reaches are re-solved, and only the subtrees of the
// components whose value moved have their visibility re-derived. into,
// when non-nil, is overwritten and returned (a caller's scratch);
// otherwise the view is new. The second result lists the components
// whose value or visibility differs from from's, in pre-order, in a slice
// that is the solver's until its next call.
func (sv *Solver) Resolve(from *Solved, pins []uint8, changed []int, into *Solved) (*Solved, []int, error) {
	s := from.schema
	if into == nil {
		into = s.newSolved()
	}
	moved, err := sv.r.Resolve(s.net, from.assign, pins, changed, into.assign)
	if err != nil {
		return nil, nil, err
	}
	copy(into.vis, from.vis)
	sv.roots, sv.diff = sv.roots[:0], sv.diff[:0]
	for _, i := range moved {
		if j := s.varComp[i]; j >= 0 {
			sv.roots = append(sv.roots, int(j))
		}
	}
	slices.Sort(sv.roots)
	end := 0
	for _, root := range sv.roots {
		if root < end {
			continue // inside a subtree already re-derived
		}
		end = int(s.comps[root].end)
		for j := root; j < end; j++ {
			into.vis[j] = into.visible(j)
			vr := s.comps[j].variable
			if into.vis[j] != from.vis[j] || vr >= 0 && into.assign[vr] != from.assign[vr] {
				sv.diff = append(sv.diff, j)
			}
		}
	}
	return into, sv.diff, nil
}
