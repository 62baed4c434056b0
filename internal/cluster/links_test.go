package cluster

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/server"
)

// TestNodeLinkServesExactlyTheNodeMethods: the node link is the methods
// proto numbers for it — ping, ingress, replicate, fetchchunks — and a
// cluster node's server has a handler for each and for no other node.*
// method.
func TestNodeLinkServesExactlyTheNodeMethods(t *testing.T) {
	n, err := New(openTestMedia(t), server.Options{}, Config{ID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var want []string
	for _, m := range proto.NodeMethods() {
		want = append(want, m)
	}
	slices.Sort(want)
	if four := []string{proto.MNodeFetchChunks, proto.MNodeIngress, proto.MNodePing, proto.MNodeReplicate}; !slices.Equal(want, four) {
		t.Errorf("proto numbers node methods %v, want %v", want, four)
	}
	var got []string
	for _, m := range n.Server().Methods() {
		if strings.HasPrefix(m, "node.") {
			got = append(got, m)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("node serves node methods %v, proto numbers %v", got, want)
	}
}

// TestNodeLinkRefusesTheWrongNode: a link dialed at an address where
// another node answers is refused — the first ping on it names who
// answered — and no heartbeat marks the id the link was for live.
func TestNodeLinkRefusesTheWrongNode(t *testing.T) {
	h := newHarness(t, 3, false)
	// n4 believes n2 listens where n3 does.
	stray, err := New(openTestMedia(t), server.Options{}, Config{
		ID:    "n4",
		Peers: map[string]string{"n2": h.ByID("n3").Addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := stray.peers["n2"].link.get(ctx, stray); err == nil || !strings.Contains(err.Error(), "reached n3") {
		t.Errorf("link to n2 at n3's address: %v, want it refused for reaching n3", err)
	}
	for i := 0; i < 3; i++ { // beside the pinger's own
		stray.pingOnce(stray.peers["n2"])
	}
	if live := stray.Live(); !slices.Equal(live, []string{"n4"}) {
		t.Errorf("n4 sees %v live, want only itself", live)
	}
}
