package cpnet

import (
	"fmt"
	"slices"
)

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
// It records, for each private operation variable, only what
// Network.AddOperationVariable would write into the network: the
// variable's name, its one parent (a base variable or an earlier private
// one) and the parent value under which it prefers applied. Everything
// else is the base's; document.Schema.WithPrivate resolves the records
// against the compiled base once, and a view is derived from the base
// completion in declaration order.
type Overlay struct {
	base *Network
	vars []PrivateVariable
}

// PrivateVariable is one viewer-private operation variable. Its domain is
// {applied, flat}, and applied is preferred exactly when Parent takes
// ActiveWhen.
type PrivateVariable struct {
	Name, Parent, ActiveWhen string
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Network) *Overlay { return &Overlay{base: base} }

// Base returns the shared network underlying the overlay.
func (ov *Overlay) Base() *Network { return ov.base }

// Empty reports whether the overlay extends nothing: its viewer's
// completion is the base network's.
func (ov *Overlay) Empty() bool { return len(ov.vars) == 0 }

// Owns reports whether name is one of the viewer-private variables.
func (ov *Overlay) Owns(name string) bool { return named(ov.vars, name) }

func named(vars []PrivateVariable, name string) bool {
	return slices.ContainsFunc(vars, func(pv PrivateVariable) bool { return pv.Name == name })
}

// Private returns the viewer-private variables in the order they were
// added. The slice is the overlay's: read it, never write it.
func (ov *Overlay) Private() []PrivateVariable { return ov.vars }

// supports reports whether a private variable made under parent=activeWhen
// can hang off the base or off one of the earlier private variables.
func (ov *Overlay) supports(earlier []PrivateVariable, parent, activeWhen string) bool {
	if named(earlier, parent) {
		return activeWhen == OpApplied || activeWhen == OpFlat
	}
	return ov.base.HasValue(parent, activeWhen)
}

// AddOperationVariable is the per-viewer counterpart of
// Network.AddOperationVariable: the derived variable lives only in this
// viewer's overlay. comp may be a base variable or one of the overlay's
// own, so operations stack.
func (ov *Overlay) AddOperationVariable(comp, op, activeWhen string) (string, error) {
	if !ov.base.HasVariable(comp) && !ov.Owns(comp) {
		return "", fmt.Errorf("cpnet: unknown component %q", comp)
	}
	if !ov.supports(ov.vars, comp, activeWhen) {
		return "", fmt.Errorf("cpnet: component %q has no presentation %q", comp, activeWhen)
	}
	name := OperationVariableName(comp, op)
	if ov.base.HasVariable(name) || ov.Owns(name) {
		return "", fmt.Errorf("cpnet: variable %q already exists", name)
	}
	ov.vars = append(ov.vars, PrivateVariable{Name: name, Parent: comp, ActiveWhen: activeWhen})
	return name, nil
}

// Prune drops the private variables an edit of the base left without
// support, as Document.RemoveComponent drops a removed component's shared
// operation variables: one whose parent is gone (a removed component or
// shared operation variable, or a private variable dropped before it) or
// no longer takes ActiveWhen, and one whose name the base now carries
// itself (the same operation, made shared). It returns the names it
// dropped, so the caller can drop their pins.
func (ov *Overlay) Prune() []string {
	var dropped []string
	kept := ov.vars[:0]
	for _, pv := range ov.vars {
		if ov.base.HasVariable(pv.Name) || !ov.supports(kept, pv.Parent, pv.ActiveWhen) {
			dropped = append(dropped, pv.Name)
			continue
		}
		kept = append(kept, pv)
	}
	clear(ov.vars[len(kept):])
	ov.vars = kept
	return dropped
}
