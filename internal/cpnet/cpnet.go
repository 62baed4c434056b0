// Package cpnet implements CP-networks (conditional preference networks),
// the qualitative, graphical preference model underlying the presentation
// module of "Remote Conferencing with Multimedia Objects" (Gudes, Domshlak,
// Orlov; EDBT 2002 Workshops).
//
// A CP-network is a directed acyclic graph. Each node stands for a variable
// (in the conferencing system: a multimedia document component) with a finite
// domain of values (the component's optional presentations). Each node v
// carries a conditional preference table CPT(v): for every assignment to the
// parents Pi(v), a total preference order over the values of v, interpreted
// under a ceteris paribus ("all else being equal") semantics.
//
// The two reasoning services the conferencing system relies on are
//
//   - OptimalOutcome: the unique most-preferred complete assignment, found by
//     a single topological sweep (set every variable to its most preferred
//     value given its already-fixed parents), and
//   - OptimalCompletion: the most-preferred complete assignment consistent
//     with evidence (the viewers' explicit presentation choices), found by
//     the same sweep with the evidence variables pinned.
//
// The package also provides the online-update operations of §4.2 of the
// paper (adding/removing components, deriving operation variables such as
// "segmented view of image ci"), per-viewer overlays, and text/binary
// serialization. Dominance testing by improving-flip search lives in the
// package's tests, as the reference the optimal sweep is checked against.
package cpnet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// MaxDomainSize bounds the number of values a single variable may take.
// Assignments are encoded one byte per variable, which is far beyond any
// realistic set of alternative presentations for one component.
const MaxDomainSize = 255

// Variable describes one node of the network: a named variable together
// with its finite, ordered domain of value names.
type Variable struct {
	Name   string
	Domain []string
}

// Outcome is a complete or partial assignment of values to variables,
// keyed by variable name. Complete outcomes returned by the reasoning
// methods assign every variable of the network.
type Outcome map[string]string

// Clone returns a copy of the outcome.
func (o Outcome) Clone() Outcome {
	c := make(Outcome, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

// String renders the outcome deterministically as "a=1 b=2 ...".
func (o Outcome) String() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + o[k]
	}
	return strings.Join(parts, " ")
}

// node is the internal representation of a variable.
type node struct {
	v       Variable
	valIdx  map[string]int // value name -> index in Domain
	parents []int          // parent node indices, in declaration order
	// cpt maps a mixed-radix encoding of the parent assignment to a total
	// preference order over domain indices, most preferred first. A nil
	// entry means the row has not been specified.
	cpt map[uint64][]uint8
}

// Network is a CP-network under construction or in use. The zero value is
// not usable; create networks with New. A Network is not safe for
// concurrent mutation; its read-only methods are safe for concurrent use
// once construction is complete.
type Network struct {
	nodes []*node
	index map[string]int // variable name -> node index
	// compiled caches the solving form (Compile); nil when stale. Every
	// mutation drops it, a preference row included. compiledMu guards
	// it: concurrent reads fill it.
	compiledMu sync.Mutex
	compiled   *Compiled
}

// New returns an empty network.
func New() *Network {
	return &Network{index: make(map[string]int)}
}

// Len returns the number of variables in the network.
func (n *Network) Len() int { return len(n.nodes) }

// Variables returns the variables in declaration order.
func (n *Network) Variables() []Variable {
	vs := make([]Variable, len(n.nodes))
	for i, nd := range n.nodes {
		vs[i] = nd.v
	}
	return vs
}

// HasVariable reports whether the network contains a variable of that name.
func (n *Network) HasVariable(name string) bool {
	_, ok := n.index[name]
	return ok
}

// HasValue reports whether the named variable has value in its domain.
func (n *Network) HasValue(name, value string) bool {
	i, ok := n.index[name]
	if !ok {
		return false
	}
	_, ok = n.nodes[i].valIdx[value]
	return ok
}

// Domain returns the domain of the named variable.
func (n *Network) Domain(name string) ([]string, error) {
	i, ok := n.index[name]
	if !ok {
		return nil, fmt.Errorf("cpnet: unknown variable %q", name)
	}
	return append([]string(nil), n.nodes[i].v.Domain...), nil
}

// Parents returns the names of the parents Pi(v) of the named variable.
func (n *Network) Parents(name string) ([]string, error) {
	i, ok := n.index[name]
	if !ok {
		return nil, fmt.Errorf("cpnet: unknown variable %q", name)
	}
	ps := make([]string, len(n.nodes[i].parents))
	for j, p := range n.nodes[i].parents {
		ps[j] = n.nodes[p].v.Name
	}
	return ps, nil
}

// AddVariable adds a parentless variable with the given domain. The first
// declared preference rows arrive later through SetPreference; until then
// Validate reports the variable as incomplete.
func (n *Network) AddVariable(name string, domain []string) error {
	if name == "" {
		return fmt.Errorf("cpnet: empty variable name")
	}
	if _, dup := n.index[name]; dup {
		return fmt.Errorf("cpnet: duplicate variable %q", name)
	}
	if len(domain) == 0 {
		return fmt.Errorf("cpnet: variable %q has empty domain", name)
	}
	if len(domain) > MaxDomainSize {
		return fmt.Errorf("cpnet: variable %q domain size %d exceeds %d", name, len(domain), MaxDomainSize)
	}
	vi := make(map[string]int, len(domain))
	for i, val := range domain {
		if val == "" {
			return fmt.Errorf("cpnet: variable %q has empty value name", name)
		}
		if _, dup := vi[val]; dup {
			return fmt.Errorf("cpnet: variable %q has duplicate value %q", name, val)
		}
		vi[val] = i
	}
	n.index[name] = len(n.nodes)
	n.nodes = append(n.nodes, &node{
		v:      Variable{Name: name, Domain: append([]string(nil), domain...)},
		valIdx: vi,
		cpt:    make(map[uint64][]uint8),
	})
	n.invalidate()
	return nil
}

// SetParents declares Pi(v) for the named variable, replacing any previous
// parent set and clearing its preference table (the CPT rows are keyed by
// parent assignments, so they cannot survive a parent change). The
// resulting graph must remain acyclic.
func (n *Network) SetParents(name string, parents []string) error {
	i, ok := n.index[name]
	if !ok {
		return fmt.Errorf("cpnet: unknown variable %q", name)
	}
	pidx := make([]int, len(parents))
	seen := make(map[int]bool, len(parents))
	for j, p := range parents {
		pi, ok := n.index[p]
		if !ok {
			return fmt.Errorf("cpnet: unknown parent %q of %q", p, name)
		}
		if pi == i {
			return fmt.Errorf("cpnet: variable %q cannot be its own parent", name)
		}
		if seen[pi] {
			return fmt.Errorf("cpnet: duplicate parent %q of %q", p, name)
		}
		seen[pi] = true
		pidx[j] = pi
	}
	for _, p := range pidx {
		if !slices.Contains(n.nodes[i].parents, p) && n.reaches(p, i) {
			return fmt.Errorf("cpnet: setting parents of %q: cpnet: dependency graph has a cycle", name)
		}
	}
	n.nodes[i].parents = pidx
	n.invalidate()
	n.nodes[i].cpt = make(map[uint64][]uint8)
	return nil
}

// reaches reports whether variable to is an ancestor of from, or from
// itself: whether making from a parent of to would close a cycle. It
// walks from's ancestors only, so conditioning a variable on a fresh
// parentless one (the bandwidth tuning of a wide document) costs nothing
// per variable, where recomputing the order would cost the network.
func (n *Network) reaches(from, to int) bool {
	seen := make([]bool, len(n.nodes))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		for _, p := range n.nodes[v].parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// SetPreference records one CPT row: under the parent assignment ctx
// (which must assign exactly the parents of name), the values of name are
// preferred in the given order, most preferred first. The order must be a
// permutation of the variable's domain.
func (n *Network) SetPreference(name string, ctx Outcome, order []string) error {
	i, ok := n.index[name]
	if !ok {
		return fmt.Errorf("cpnet: unknown variable %q", name)
	}
	nd := n.nodes[i]
	key, err := n.ctxKey(nd, ctx)
	if err != nil {
		return fmt.Errorf("cpnet: preference for %q: %w", name, err)
	}
	if len(order) != len(nd.v.Domain) {
		return fmt.Errorf("cpnet: preference for %q lists %d values, domain has %d",
			name, len(order), len(nd.v.Domain))
	}
	perm := make([]uint8, len(order))
	seen := make(map[int]bool, len(order))
	for j, val := range order {
		vi, ok := nd.valIdx[val]
		if !ok {
			return fmt.Errorf("cpnet: preference for %q names unknown value %q", name, val)
		}
		if seen[vi] {
			return fmt.Errorf("cpnet: preference for %q repeats value %q", name, val)
		}
		seen[vi] = true
		perm[j] = uint8(vi)
	}
	nd.cpt[key] = perm
	n.invalidate()
	return nil
}

// SetUnconditional is shorthand for SetPreference on a parentless variable.
func (n *Network) SetUnconditional(name string, order []string) error {
	return n.SetPreference(name, nil, order)
}

// ctxKey encodes an assignment to nd's parents as a mixed-radix integer.
// ctx must assign every parent (extra keys are rejected so that authoring
// mistakes surface early).
func (n *Network) ctxKey(nd *node, ctx Outcome) (uint64, error) {
	if len(ctx) != len(nd.parents) {
		return 0, fmt.Errorf("context assigns %d variables, %d parents expected", len(ctx), len(nd.parents))
	}
	var key uint64
	for _, pi := range nd.parents {
		p := n.nodes[pi]
		val, ok := ctx[p.v.Name]
		if !ok {
			return 0, fmt.Errorf("context missing parent %q", p.v.Name)
		}
		vi, ok := p.valIdx[val]
		if !ok {
			return 0, fmt.Errorf("parent %q has no value %q", p.v.Name, val)
		}
		key = key*uint64(len(p.v.Domain)) + uint64(vi)
	}
	return key, nil
}

// rowCount returns the number of CPT rows variable i must define: the
// product of its parents' domain sizes, or MaxUint64 when that product
// does not fit (no CPT can be that complete).
func (n *Network) rowCount(i int) uint64 {
	count := uint64(1)
	for _, pi := range n.nodes[i].parents {
		hi, lo := bits.Mul64(count, uint64(len(n.nodes[pi].v.Domain)))
		if hi != 0 {
			return math.MaxUint64
		}
		count = lo
	}
	return count
}

// Validate checks that the network is a DAG and that every variable has a
// complete CPT: one total order per parent assignment, keyed inside the
// parents' assignment space.
func (n *Network) Validate() error {
	if len(n.nodes) == 0 {
		return fmt.Errorf("cpnet: empty network")
	}
	if _, err := n.topoOrder(); err != nil {
		return err
	}
	for i, nd := range n.nodes {
		want := n.rowCount(i)
		if got := uint64(len(nd.cpt)); got != want {
			return fmt.Errorf("cpnet: variable %q has %d of %d CPT rows", nd.v.Name, got, want)
		}
		for k := range nd.cpt {
			if k >= want {
				return fmt.Errorf("cpnet: variable %q has a CPT row for key %d of %d", nd.v.Name, k, want)
			}
		}
	}
	return nil
}

// invalidate drops the compiled form after a mutation.
func (n *Network) invalidate() { n.compiled = nil }

// topoOrder returns a topological order of node indices, or an error if
// the parent graph has a cycle.
func (n *Network) topoOrder() ([]int, error) {
	indeg := make([]int, len(n.nodes))
	ch := n.childAdj()
	for i := range n.nodes {
		indeg[i] = len(n.nodes[i].parents)
	}
	queue := make([]int, 0, len(n.nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(n.nodes))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, c := range ch[i] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(n.nodes) {
		return nil, fmt.Errorf("cpnet: dependency graph has a cycle")
	}
	return order, nil
}

// childAdj returns child adjacency lists.
func (n *Network) childAdj() [][]int {
	ch := make([][]int, len(n.nodes))
	for i, nd := range n.nodes {
		for _, p := range nd.parents {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := New()
	for _, nd := range n.nodes {
		cn := &node{
			v:       Variable{Name: nd.v.Name, Domain: append([]string(nil), nd.v.Domain...)},
			valIdx:  make(map[string]int, len(nd.valIdx)),
			parents: append([]int(nil), nd.parents...),
			cpt:     make(map[uint64][]uint8, len(nd.cpt)),
		}
		for k, v := range nd.valIdx {
			cn.valIdx[k] = v
		}
		for k, row := range nd.cpt {
			cn.cpt[k] = append([]uint8(nil), row...)
		}
		c.index[nd.v.Name] = len(c.nodes)
		c.nodes = append(c.nodes, cn)
	}
	return c
}

// fromAssign converts an internal assignment vector to an Outcome.
func (n *Network) fromAssign(assign []uint8) Outcome {
	o := make(Outcome, len(n.nodes))
	for i, nd := range n.nodes {
		o[nd.v.Name] = nd.v.Domain[assign[i]]
	}
	return o
}

// Preference returns the preference order (most preferred first) of the
// named variable under the given parent context.
func (n *Network) Preference(name string, ctx Outcome) ([]string, error) {
	i, ok := n.index[name]
	if !ok {
		return nil, fmt.Errorf("cpnet: unknown variable %q", name)
	}
	nd := n.nodes[i]
	key, err := n.ctxKey(nd, ctx)
	if err != nil {
		return nil, fmt.Errorf("cpnet: preference of %q: %w", name, err)
	}
	row, ok := nd.cpt[key]
	if !ok {
		return nil, fmt.Errorf("cpnet: variable %q has no CPT row for %v", name, ctx)
	}
	out := make([]string, len(row))
	for j, v := range row {
		out[j] = nd.v.Domain[v]
	}
	return out, nil
}

// ForEachContext enumerates every assignment to the named variable's
// parents, invoking fn with each context; fn returning false stops early.
// Parentless variables get a single empty context.
func (n *Network) ForEachContext(name string, fn func(ctx Outcome) bool) error {
	i, ok := n.index[name]
	if !ok {
		return fmt.Errorf("cpnet: unknown variable %q", name)
	}
	nd := n.nodes[i]
	stop := false
	n.forEachParentCtx(nd.parents, func(vals []uint8, key uint64) {
		if stop {
			return
		}
		ctx := make(Outcome, len(nd.parents))
		for j, pi := range nd.parents {
			p := n.nodes[pi]
			ctx[p.v.Name] = p.v.Domain[vals[j]]
		}
		if !fn(ctx) {
			stop = true
		}
	})
	return nil
}
