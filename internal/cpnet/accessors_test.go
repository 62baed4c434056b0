package cpnet

import "fmt"

// ctxKeyFromAssign encodes the parent context of nd taken from a complete
// internal assignment (one value index per node).
func (n *Network) ctxKeyFromAssign(nd *node, assign []uint8) uint64 {
	var key uint64
	for _, pi := range nd.parents {
		key = key*uint64(len(n.nodes[pi].v.Domain)) + uint64(assign[pi])
	}
	return key
}

// toAssign converts an Outcome to an internal assignment vector, verifying
// that it is complete and well-typed.
func (n *Network) toAssign(o Outcome) ([]uint8, error) {
	if len(o) != len(n.nodes) {
		return nil, fmt.Errorf("cpnet: outcome assigns %d of %d variables", len(o), len(n.nodes))
	}
	assign := make([]uint8, len(n.nodes))
	for i, nd := range n.nodes {
		val, ok := o[nd.v.Name]
		if !ok {
			return nil, fmt.Errorf("cpnet: outcome missing variable %q", nd.v.Name)
		}
		vi, ok := nd.valIdx[val]
		if !ok {
			return nil, fmt.Errorf("cpnet: variable %q has no value %q", nd.v.Name, val)
		}
		assign[i] = uint8(vi)
	}
	return assign, nil
}

// prefRank returns the position (0 = most preferred) of value index vi of
// node i under the parent context encoded in assign.
func (n *Network) prefRank(i int, assign []uint8, vi uint8) (int, error) {
	nd := n.nodes[i]
	row, ok := nd.cpt[n.ctxKeyFromAssign(nd, assign)]
	if !ok {
		return 0, fmt.Errorf("cpnet: variable %q missing CPT row", nd.v.Name)
	}
	for r, v := range row {
		if v == vi {
			return r, nil
		}
	}
	return 0, fmt.Errorf("cpnet: variable %q CPT row lacks value index %d", nd.v.Name, vi)
}

// Consistent reports whether the outcome violates no CPT row pinning —
// that is, whether it is a member of the configuration space and assigns a
// legal value to every variable. It is a structural check, not a
// preference check.
func (n *Network) Consistent(o Outcome) error {
	_, err := n.toAssign(o)
	return err
}
