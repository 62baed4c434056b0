package cpnet

import "fmt"

// This file is the solve path on vectors. A Compiled network is an
// immutable snapshot of everything a sweep reads — topological order,
// parents, children, domains and, per variable, the most preferred value
// of every CPT row — indexed by variable position in declaration order.
// A solve writes one value index per variable into a []uint8. Because
// the snapshot never changes, a caller may keep it and solve against it
// while the network it came from is edited.

// Unpinned marks, in an evidence vector, a variable the evidence leaves
// free. Value indices stop at MaxDomainSize-1, so it names no value.
const Unpinned = 0xFF

// noRow marks, in a compiled table, a parent context whose CPT row is
// missing: a solve that reaches it fails as the map-based sweep did.
const noRow = 0xFF

// maxCompiledRows bounds the dense table one variable compiles to. A
// valid network's table is no larger than its CPT map already is; only a
// sparse CPT over a huge parent space (an unvalidated network) reaches it.
const maxCompiledRows = 1 << 24

// Compiled is the immutable solving form of a network, built by
// Network.Compile. Its methods are safe for concurrent use.
type Compiled struct {
	vars     []Variable // shares the network's immutable name and domain slices
	index    map[string]int
	valIdx   []map[string]int // shares the network's, which are never written after AddVariable
	parents  [][]int32
	children [][]int32
	topo     []int32 // a topological order of variable indices
	pos      []int32 // pos[i] is variable i's place in topo
	// best[i][key] is variable i's most preferred value index under the
	// parent context whose mixed-radix key is key, or noRow.
	best [][]uint8
}

// Compile returns the network's compiled form. It is built on the first
// call after a mutation and shared until the next one; concurrent calls
// build it once. The network must not be mutated concurrently with the
// call.
func (n *Network) Compile() (*Compiled, error) {
	n.compiledMu.Lock()
	defer n.compiledMu.Unlock()
	if n.compiled != nil {
		return n.compiled, nil
	}
	order, err := n.topoOrder()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		vars:     make([]Variable, len(n.nodes)),
		index:    make(map[string]int, len(n.nodes)),
		valIdx:   make([]map[string]int, len(n.nodes)),
		parents:  make([][]int32, len(n.nodes)),
		children: make([][]int32, len(n.nodes)),
		topo:     make([]int32, len(order)),
		pos:      make([]int32, len(n.nodes)),
		best:     make([][]uint8, len(n.nodes)),
	}
	for p, i := range order {
		c.topo[p], c.pos[i] = int32(i), int32(p)
	}
	for i, nd := range n.nodes {
		c.vars[i] = nd.v
		c.index[nd.v.Name] = i
		c.valIdx[i] = nd.valIdx
		c.parents[i] = make([]int32, len(nd.parents))
		for j, p := range nd.parents {
			c.parents[i][j] = int32(p)
			c.children[p] = append(c.children[p], int32(i))
		}
		rows := n.rowCount(i)
		if rows > maxCompiledRows && rows > uint64(len(nd.cpt)) {
			return nil, fmt.Errorf("cpnet: variable %q has %d of %d CPT rows: too sparse to compile", nd.v.Name, len(nd.cpt), rows)
		}
		best := make([]uint8, rows)
		for k := range best {
			best[k] = noRow
		}
		for k, row := range nd.cpt {
			if k < rows {
				best[k] = row[0]
			}
		}
		c.best[i] = best
	}
	n.compiled = c
	return c, nil
}

// Len returns the number of variables.
func (c *Compiled) Len() int { return len(c.vars) }

// Variable returns variable i. Its domain is shared: read it, never
// write it.
func (c *Compiled) Variable(i int) Variable { return c.vars[i] }

// Index returns the position of the named variable.
func (c *Compiled) Index(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// ValueIndex returns the position of value in variable i's domain.
func (c *Compiled) ValueIndex(i int, value string) (int, bool) {
	v, ok := c.valIdx[i][value]
	return v, ok
}

// Outcome converts an assignment vector to an Outcome.
func (c *Compiled) Outcome(assign []uint8) Outcome {
	o := make(Outcome, len(c.vars))
	for i, v := range c.vars {
		o[v.Name] = v.Domain[assign[i]]
	}
	return o
}

// Pin pins the named variable to value in the evidence vector pins.
func (c *Compiled) Pin(pins []uint8, name, value string) error {
	i, ok := c.index[name]
	if !ok {
		return fmt.Errorf("cpnet: evidence names unknown variable %q", name)
	}
	vi, ok := c.valIdx[i][value]
	if !ok {
		return fmt.Errorf("cpnet: evidence assigns %q unknown value %q", name, value)
	}
	pins[i] = uint8(vi)
	return nil
}

// Evidence returns the evidence vector of an Outcome, in pins when it has
// the right length: Unpinned everywhere the outcome says nothing.
func (c *Compiled) Evidence(evidence Outcome, pins []uint8) ([]uint8, error) {
	if len(pins) != len(c.vars) {
		pins = make([]uint8, len(c.vars))
	}
	for i := range pins {
		pins[i] = Unpinned
	}
	for name, val := range evidence {
		if err := c.Pin(pins, name, val); err != nil {
			return nil, err
		}
	}
	return pins, nil
}

// key encodes variable i's parent context in assign as its CPT key.
func (c *Compiled) key(i int32, assign []uint8) uint64 {
	var key uint64
	for _, p := range c.parents[i] {
		key = key*uint64(len(c.vars[p].Domain)) + uint64(assign[p])
	}
	return key
}

// value is what the sweep gives variable i: its pin, or its most
// preferred value given its parents' values in assign.
func (c *Compiled) value(i int32, pins, assign []uint8) (uint8, error) {
	if pins[i] != Unpinned {
		return pins[i], nil
	}
	v := c.best[i][c.key(i, assign)]
	if v == noRow {
		return 0, fmt.Errorf("cpnet: variable %q missing CPT row (network not validated?)", c.vars[i].Name)
	}
	return v, nil
}

// Complete writes into assign (one entry per variable) the optimal
// completion of the evidence pins: every pinned variable keeps its pin,
// every other takes its most preferred value given its parents', in
// topological order.
func (c *Compiled) Complete(pins, assign []uint8) error {
	for _, i := range c.topo {
		v, err := c.value(i, pins, assign)
		if err != nil {
			return err
		}
		assign[i] = v
	}
	return nil
}

// A Resolver re-solves completions by change propagation, keeping its
// work space between calls. It is not safe for concurrent use; the zero
// value is ready.
type Resolver struct {
	heap   []int32 // topological positions still to visit, a min-heap
	queued []bool  // by variable: its position is on the heap
	moved  []int
}

// Resolve writes into assign the optimal completion of the evidence pins,
// derived from base: the completion of evidence that differs from pins
// at most at the variables in changed. It copies base and visits a
// variable, in topological order, only when its pin changed or a
// parent's value did; everything it does not reach keeps base's value.
// It returns the variables whose value differs from base, in topological
// order, in a slice that is the resolver's until its next call.
func (r *Resolver) Resolve(c *Compiled, base, pins []uint8, changed []int, assign []uint8) ([]int, error) {
	copy(assign, base)
	if len(r.queued) < len(c.vars) {
		r.queued = make([]bool, len(c.vars))
	}
	r.heap, r.moved = r.heap[:0], r.moved[:0]
	for _, i := range changed {
		r.push(c, int32(i))
	}
	for len(r.heap) > 0 {
		i := c.topo[r.pop()]
		r.queued[i] = false
		v, err := c.value(i, pins, assign)
		if err != nil {
			for _, p := range r.heap {
				r.queued[c.topo[p]] = false
			}
			return nil, err
		}
		if v == assign[i] {
			continue // its children's contexts did not change
		}
		assign[i] = v
		r.moved = append(r.moved, int(i))
		for _, ch := range c.children[i] {
			r.push(c, ch)
		}
	}
	return r.moved, nil
}

// push queues variable i at its topological position, once.
func (r *Resolver) push(c *Compiled, i int32) {
	if r.queued[i] {
		return
	}
	r.queued[i] = true
	h := append(r.heap, c.pos[i])
	for j := len(h) - 1; j > 0; {
		up := (j - 1) / 2
		if h[up] <= h[j] {
			break
		}
		h[up], h[j] = h[j], h[up]
		j = up
	}
	r.heap = h
}

// pop removes and returns the smallest queued position.
func (r *Resolver) pop() int32 {
	h := r.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		small, l := j, 2*j+1
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if l+1 < len(h) && h[l+1] < h[small] {
			small = l + 1
		}
		if small == j {
			break
		}
		h[j], h[small] = h[small], h[j]
		j = small
	}
	r.heap = h
	return top
}
