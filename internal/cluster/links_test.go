package cluster

import (
	"bytes"
	"context"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/server"
	"mmconf/internal/wire"
)

// TestNodeLinkServesExactlyTheNodeMethods: the node link is the node
// rows of proto's method table — ping, ingress, replicate, fetchchunks —
// and a cluster node's server has a handler for each and for no other
// node.* method.
func TestNodeLinkServesExactlyTheNodeMethods(t *testing.T) {
	n, err := New(openTestMedia(t), server.Options{}, Config{ID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var want []string
	for _, m := range proto.Methods() {
		if m.Plane == proto.PlaneNode {
			want = append(want, m.Name)
		}
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

// gatedConn holds every Write while held is set, until release closes.
type gatedConn struct {
	net.Conn
	held    atomic.Bool
	release chan struct{}
}

func (g *gatedConn) Write(b []byte) (int, error) {
	if g.held.Load() {
		<-g.release
	}
	return g.Conn.Write(b)
}

// TestIngressRelayCopiesThePush: a push body is valid only during the
// push handler's call — the ingress link reads the owner's frame where
// it lies in its read buffer, and the next frame overwrites it — so the
// relay hands the origin's writer a copy. Here the origin's connection
// is held while the owner sends a second push behind the first; once it
// is let go, the first push reaches the origin client intact.
func TestIngressRelayCopiesThePush(t *testing.T) {
	// The origin: a client whose server-side peer the relay pushes to.
	originSrv := wire.NewServer()
	peers := make(chan *wire.Peer, 1)
	originSrv.Register("hello", func(_ context.Context, p *wire.Peer, _ []byte) (any, error) {
		peers <- p
		return nil, nil
	})
	osc, occ := net.Pipe()
	gate := &gatedConn{Conn: osc, release: make(chan struct{})}
	go originSrv.ServeConn(gate)
	defer originSrv.Close()
	origin := wire.NewClient(occ)
	defer origin.Close()
	got := make(chan []byte, 2)
	origin.OnPush(func(_ string, body wire.Body) { got <- append([]byte(nil), body.Data...) })
	if err := origin.CallCtx(context.Background(), "hello", &wire.None{}, nil); err != nil {
		t.Fatal(err)
	}
	originPeer := <-peers

	// The owner: answers the ingress mark and remembers the link's peer.
	ownerSrv := wire.NewServer()
	links := make(chan *wire.Peer, 1)
	ownerSrv.Register(proto.MNodeIngress, wire.Typed(func(_ context.Context, p *wire.Peer, _ *proto.NodeIngressReq) (*wire.None, error) {
		links <- p
		return &wire.None{}, nil
	}))
	defer ownerSrv.Close()
	n, err := New(openTestMedia(t), server.Options{}, Config{
		ID:    "n1",
		Peers: map[string]string{"owner": "owner:0"},
		Dial: func(context.Context, string) (net.Conn, error) {
			sc, cc := net.Pipe()
			go ownerSrv.ServeConn(sc)
			return cc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rpc, err := n.dialIngress(context.Background(), originPeer, "owner")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	link := <-links

	gate.held.Store(true)
	first := bytes.Repeat([]byte{'a'}, 1000) // above the size a frame copies into its header
	second := bytes.Repeat([]byte{'b'}, 1000)
	for _, p := range [][]byte{first, second} {
		if err := link.PushRaw(proto.MEvent, wire.EncBinary, p); err != nil {
			t.Fatal(err)
		}
	}
	// Flush returns once the link has taken both frames: the second lies
	// in its read buffer where the first did.
	if err := link.Flush(); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	for i, want := range [][]byte{first, second} {
		select {
		case p := <-got:
			if !bytes.Equal(p, want) {
				t.Fatalf("relayed push %d arrived as %q..., want %q...", i+1, p[:8], want[:8])
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("relayed push %d never arrived", i+1)
		}
	}
}
