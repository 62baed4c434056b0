package cluster

import (
	"context"
	"fmt"
)

// Addrs lists every node's client address in node order — the endpoint
// set for client.NewOverResolver.
func (h *Harness) Addrs() []string {
	addrs := make([]string, len(h.Nodes))
	for i, hn := range h.Nodes {
		addrs[i] = hn.Addr
	}
	return addrs
}

// Owner computes which currently alive node owns room — where the
// cluster will serve it once views converge.
func (h *Harness) Owner(room string) *HarnessNode {
	return h.ByID(NewPlacement(h.aliveIDs()).Owner(room))
}

// Kill crashes the node: its listener closes, every connection in its
// fault domain resets mid-stream, and the node shuts down. Clients and
// peers observe a dead TCP transport, exactly as on a machine failure.
func (hn *HarnessNode) Kill() {
	hn.mu.Lock()
	if hn.killed {
		hn.mu.Unlock()
		return
	}
	hn.killed = true
	hn.mu.Unlock()
	hn.listener.Close()
	hn.Faults.KillAll()
	// Teardown runs off the test's critical path: the interesting part
	// of a kill is what the survivors do, not the corpse's cleanup.
	hn.h.wg.Add(1)
	go func() {
		defer hn.h.wg.Done()
		_ = hn.Node.Close()
		hn.db.Close()
	}()
}

// Drain takes the node out of service gracefully: rooms hand off to
// their post-drain owners, peers learn of the departure, members are
// told to reconnect, and only then does the node stop.
func (hn *HarnessNode) Drain(ctx context.Context) error {
	hn.mu.Lock()
	if hn.killed {
		hn.mu.Unlock()
		return fmt.Errorf("cluster: node %s already stopped", hn.ID)
	}
	hn.killed = true
	hn.mu.Unlock()
	err := hn.Node.Drain(ctx)
	hn.listener.Close()
	hn.db.Close()
	return err
}

// Partition cuts the node off: everything in its fault domain — peer
// links in and out, client connections — black-holes until Heal.
func (hn *HarnessNode) Partition() {
	hn.mu.Lock()
	hn.partitioned = true
	hn.mu.Unlock()
	hn.Faults.Partition()
}

// Heal ends the node's partition.
func (hn *HarnessNode) Heal() {
	hn.mu.Lock()
	hn.partitioned = false
	hn.mu.Unlock()
	hn.Faults.Heal()
}
