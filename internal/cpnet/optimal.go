package cpnet

// OptimalOutcome returns the unique most-preferred complete assignment of
// the network: traverse the variables in a topological order and set each
// to its most preferred value given the (already fixed) values of its
// parents. The network must be valid.
func (n *Network) OptimalOutcome() (Outcome, error) {
	return n.OptimalCompletion(nil)
}

// OptimalCompletion returns the most preferred complete assignment that is
// consistent with the evidence: the evidence variables keep their given
// values, every other variable is swept to its conditionally most
// preferred value in topological order. This is the reasoning service the
// presentation module invokes after each viewer choice (§4 of the paper):
// the viewers' explicit presentation selections are the evidence, and the
// completion is the new presentation configuration pushed to all clients.
func (n *Network) OptimalCompletion(evidence Outcome) (Outcome, error) {
	c, err := n.Compile()
	if err != nil {
		return nil, err
	}
	pins, err := c.Evidence(evidence, nil)
	if err != nil {
		return nil, err
	}
	assign := make([]uint8, c.Len())
	if err := c.Complete(pins, assign); err != nil {
		return nil, err
	}
	return c.Outcome(assign), nil
}

// OutcomeCount returns the size of the configuration space, i.e. the
// product of all domain sizes, saturating at the maximum uint64.
func (n *Network) OutcomeCount() uint64 {
	count := uint64(1)
	for _, nd := range n.nodes {
		d := uint64(len(nd.v.Domain))
		if count > ^uint64(0)/d {
			return ^uint64(0)
		}
		count *= d
	}
	return count
}

// ForEachOutcome enumerates every complete outcome of the configuration
// space, invoking fn for each; enumeration stops early if fn returns
// false. Intended for exhaustive verification on small networks (tests and
// the brute-force baseline of experiment E3); the cost is the product of
// all domain sizes.
func (n *Network) ForEachOutcome(fn func(Outcome) bool) {
	assign := make([]uint8, len(n.nodes))
	for {
		if !fn(n.fromAssign(assign)) {
			return
		}
		// Advance the mixed-radix counter.
		i := len(assign) - 1
		for i >= 0 {
			assign[i]++
			if int(assign[i]) < len(n.nodes[i].v.Domain) {
				break
			}
			assign[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}
