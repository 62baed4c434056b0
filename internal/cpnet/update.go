package cpnet

import "fmt"

// This file implements the online document-update operations of §4.2 of
// the paper. A multimedia document may be updated while it is being viewed:
// components are added or removed, and media operations (segmentation,
// zoom, annotation) applied to a component spawn derived presentation
// variables. Each update must keep the document's CP-network well-formed
// without asking the viewer to re-author preference tables.

// AddComponentVariable adds a fresh variable for a newly added document
// component, with the given parents and a single CPT ordering used for
// every parent context (the "simple yet reasonable policy" the paper
// alludes to: a new component's preference ordering is initially
// context-independent; the author may refine rows later with
// SetPreference).
func (n *Network) AddComponentVariable(name string, domain []string, parents []string, order []string) error {
	if err := n.AddVariable(name, domain); err != nil {
		return err
	}
	if err := n.SetParents(name, parents); err != nil {
		n.removeNode(name) // roll back the half-added variable
		return err
	}
	if err := n.fillAllRows(name, order); err != nil {
		n.removeNode(name)
		return err
	}
	return nil
}

// fillAllRows writes the same preference order into every CPT row of name.
func (n *Network) fillAllRows(name string, order []string) error {
	i := n.index[name]
	nd := n.nodes[i]
	if len(order) != len(nd.v.Domain) {
		return fmt.Errorf("cpnet: default order for %q lists %d values, domain has %d",
			name, len(order), len(nd.v.Domain))
	}
	perm := make([]uint8, len(order))
	seen := make(map[int]bool)
	for j, val := range order {
		vi, ok := nd.valIdx[val]
		if !ok {
			return fmt.Errorf("cpnet: default order for %q names unknown value %q", name, val)
		}
		if seen[vi] {
			return fmt.Errorf("cpnet: default order for %q repeats value %q", name, val)
		}
		seen[vi] = true
		perm[j] = uint8(vi)
	}
	rows := n.rowCount(i)
	for k := uint64(0); k < rows; k++ {
		nd.cpt[k] = append([]uint8(nil), perm...)
	}
	return nil
}

// RemoveComponentVariable removes a variable, re-wiring each child c as
// follows: v is dropped from Pi(c), and for every assignment to the
// remaining parents the surviving CPT row is the one in which v took its
// most frequent position — concretely, the row for the context in which v
// is fixed to the first value of its own most preferred row under that
// context's projection. This is the projection policy: the removed
// component behaves as if pinned at its conditionally optimal value.
//
// Removal fails if v's optimal value cannot be determined independently of
// v's own parents also being removed; in this network model v's parents
// always survive (only one variable is removed per call), so the
// projection is well defined.
func (n *Network) RemoveComponentVariable(name string) error {
	i, ok := n.index[name]
	if !ok {
		return fmt.Errorf("cpnet: unknown variable %q", name)
	}
	// Fix v to its globally optimal completion value so that children's
	// rows can be projected deterministically.
	opt, err := n.OptimalOutcome()
	if err != nil {
		return fmt.Errorf("cpnet: removing %q from an invalid network: %w", name, err)
	}
	pinned := uint8(n.nodes[i].valIdx[opt[name]])

	for ci, child := range n.nodes {
		pos := -1
		for j, p := range child.parents {
			if p == i {
				pos = j
				break
			}
		}
		if pos < 0 {
			continue
		}
		// Rebuild the child's CPT with parent v removed, keeping for each
		// reduced context the row in which v == pinned.
		newParents := make([]int, 0, len(child.parents)-1)
		newParents = append(newParents, child.parents[:pos]...)
		newParents = append(newParents, child.parents[pos+1:]...)
		newCPT := make(map[uint64][]uint8)
		n.forEachParentCtx(newParents, func(reducedVals []uint8, reducedKey uint64) {
			fullVals := make([]uint8, 0, len(child.parents))
			fullVals = append(fullVals, reducedVals[:pos]...)
			fullVals = append(fullVals, pinned)
			fullVals = append(fullVals, reducedVals[pos:]...)
			fullKey := n.keyOf(child.parents, fullVals)
			if row, ok := child.cpt[fullKey]; ok {
				newCPT[reducedKey] = row
			}
		})
		child.parents = newParents
		child.cpt = newCPT
		_ = ci
	}
	n.removeNode(name)
	return nil
}

// keyOf encodes the given parent value indices as the mixed-radix CPT key.
func (n *Network) keyOf(parents []int, vals []uint8) uint64 {
	var key uint64
	for j, pi := range parents {
		key = key*uint64(len(n.nodes[pi].v.Domain)) + uint64(vals[j])
	}
	return key
}

// forEachParentCtx enumerates every assignment to the given parent index
// list, passing the value-index vector and its mixed-radix key.
func (n *Network) forEachParentCtx(parents []int, fn func(vals []uint8, key uint64)) {
	vals := make([]uint8, len(parents))
	for {
		fn(vals, n.keyOf(parents, vals))
		i := len(vals) - 1
		for i >= 0 {
			vals[i]++
			if int(vals[i]) < len(n.nodes[parents[i]].v.Domain) {
				break
			}
			vals[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// removeNode deletes the named node and renumbers indices. Callers must
// have already detached it from children's parent lists.
func (n *Network) removeNode(name string) {
	i := n.index[name]
	n.nodes = append(n.nodes[:i], n.nodes[i+1:]...)
	delete(n.index, name)
	for j := range n.nodes {
		n.index[n.nodes[j].v.Name] = j
	}
	for _, nd := range n.nodes {
		for j, p := range nd.parents {
			if p > i {
				nd.parents[j] = p - 1
			}
		}
	}
	n.invalidate()
}

// OperationVariableName returns the canonical name of the derived variable
// created when operation op is applied to component comp.
func OperationVariableName(comp, op string) string { return comp + "/" + op }

// Operation-variable domain values: the operation's result is either shown
// ("applied") or the component stays in its plain form ("flat").
const (
	OpApplied = "applied"
	OpFlat    = "flat"
)

// AddOperationVariable implements the §4.2 update for "performing an
// operation on a component": a viewer applied operation op (say,
// segmentation) to component comp while comp was presented with value
// activeWhen. A new variable comp/op with domain {applied, flat} is added
// with Pi = {comp}; "applied" is preferred exactly when comp takes the
// value activeWhen, and "flat" is preferred otherwise. The domain of comp
// itself is unchanged, so no existing CPT row is revisited.
func (n *Network) AddOperationVariable(comp, op, activeWhen string) (string, error) {
	ci, ok := n.index[comp]
	if !ok {
		return "", fmt.Errorf("cpnet: unknown component %q", comp)
	}
	nd := n.nodes[ci]
	if _, ok := nd.valIdx[activeWhen]; !ok {
		return "", fmt.Errorf("cpnet: component %q has no presentation %q", comp, activeWhen)
	}
	name := OperationVariableName(comp, op)
	if err := n.AddVariable(name, []string{OpApplied, OpFlat}); err != nil {
		return "", err
	}
	if err := n.SetParents(name, []string{comp}); err != nil {
		n.removeNode(name)
		return "", err
	}
	for _, val := range nd.v.Domain {
		order := []string{OpFlat, OpApplied}
		if val == activeWhen {
			order = []string{OpApplied, OpFlat}
		}
		if err := n.SetPreference(name, Outcome{comp: val}, order); err != nil {
			n.removeNode(name)
			return "", err
		}
	}
	return name, nil
}

// Overlay is a per-viewer extension of a shared base network (§4.2: "this
// change will be saved as an extension of the CP-network for this
// particular viewer ... the original CP-network should not be duplicated").
// The overlay records only the extension variables and their CPTs; reads
// consult the base for everything else. The base network must not be
// mutated while overlays that reference it are alive.
type Overlay struct {
	base *Network
	ext  *Network // holds copies of referenced base vars (CPT-less anchors) plus extension vars
	own  map[string]bool
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Network) *Overlay {
	return &Overlay{base: base, ext: New(), own: make(map[string]bool)}
}

// Base returns the shared network underlying the overlay.
func (ov *Overlay) Base() *Network { return ov.base }

// Empty reports whether the overlay extends nothing: no private
// variable and no anchor. An empty overlay's completion is the base
// network's, the same for every viewer who has one.
func (ov *Overlay) Empty() bool { return ov.ext.Len() == 0 }

// Owns reports whether name is one of the viewer-private variables.
func (ov *Overlay) Owns(name string) bool { return ov.own[name] }

// Private returns the viewer-private variables in the order they were
// added.
func (ov *Overlay) Private() []Variable {
	var out []Variable
	for _, nd := range ov.ext.nodes {
		if ov.own[nd.v.Name] {
			out = append(out, nd.v)
		}
	}
	return out
}

// anchor ensures a base variable is mirrored into the extension graph so
// extension variables can name it as a parent. Anchors carry the base
// domain but no CPT; they are pinned from the base completion at solve
// time.
func (ov *Overlay) anchor(name string) error {
	if ov.ext.HasVariable(name) {
		return nil
	}
	dom, err := ov.base.Domain(name)
	if err != nil {
		return err
	}
	return ov.ext.AddVariable(name, dom)
}

// AddOperationVariable is the per-viewer counterpart of
// Network.AddOperationVariable: the derived variable lives only in this
// viewer's overlay.
func (ov *Overlay) AddOperationVariable(comp, op, activeWhen string) (string, error) {
	if !ov.base.HasVariable(comp) && !ov.ext.HasVariable(comp) {
		return "", fmt.Errorf("cpnet: unknown component %q", comp)
	}
	dom, err := ov.domainOf(comp)
	if err != nil {
		return "", err
	}
	found := false
	for _, v := range dom {
		if v == activeWhen {
			found = true
			break
		}
	}
	if !found {
		return "", fmt.Errorf("cpnet: component %q has no presentation %q", comp, activeWhen)
	}
	if err := ov.anchor(comp); err != nil {
		return "", err
	}
	name := OperationVariableName(comp, op)
	if err := ov.ext.AddVariable(name, []string{OpApplied, OpFlat}); err != nil {
		return "", err
	}
	if err := ov.ext.SetParents(name, []string{comp}); err != nil {
		ov.ext.removeNode(name)
		return "", err
	}
	for _, val := range dom {
		order := []string{OpFlat, OpApplied}
		if val == activeWhen {
			order = []string{OpApplied, OpFlat}
		}
		if err := ov.ext.SetPreference(name, Outcome{comp: val}, order); err != nil {
			ov.ext.removeNode(name)
			return "", err
		}
	}
	ov.own[name] = true
	return name, nil
}

// domainOf resolves a variable's domain from base or extension.
func (ov *Overlay) domainOf(name string) ([]string, error) {
	if ov.base.HasVariable(name) {
		return ov.base.Domain(name)
	}
	return ov.ext.Domain(name)
}

// OptimalCompletion solves the base network under the evidence, then
// extends the completion with the overlay's private variables: each
// extension variable is set to its most preferred value given its parents'
// values in the combined assignment (evidence entries naming extension
// variables pin them directly). The base outcome is exactly what every
// other viewer would compute; only the extension differs per viewer.
func (ov *Overlay) OptimalCompletion(evidence Outcome) (Outcome, error) {
	if ov.Empty() {
		return ov.base.OptimalCompletion(evidence)
	}
	baseEv := make(Outcome)
	extEv := make(Outcome)
	for k, v := range evidence {
		if ov.own[k] {
			extEv[k] = v
		} else {
			baseEv[k] = v
		}
	}
	out, err := ov.base.OptimalCompletion(baseEv)
	if err != nil {
		return nil, err
	}
	// Pin every anchor to the base completion, then complete the extension.
	for _, v := range ov.ext.Variables() {
		if !ov.own[v.Name] {
			extEv[v.Name] = out[v.Name]
		}
	}
	extOut, err := ov.ext.OptimalCompletion(extEv)
	if err != nil {
		return nil, err
	}
	for name := range ov.own {
		out[name] = extOut[name]
	}
	return out, nil
}
