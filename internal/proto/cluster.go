// Cluster node-link plane: the methods two mmconf nodes speak to each
// other over an ordinary wire-v2 connection — membership handshake and
// liveness (hello/ping), forwarded-client ingress marking, and room
// event-log replication to the failover standby. These ride the same
// frame format as client traffic, with hand-written binary codecs and
// stable method codes (25+; the client plane owns 1–24).
package proto

import (
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Node-link method names.
const (
	// MNodeHello opens a node-to-node link: the caller introduces its
	// node id, advertised client address and membership epoch.
	MNodeHello = "node.hello"
	// MNodePing is the recurring liveness heartbeat between nodes; the
	// response carries the responder's current live-set so views
	// converge without a separate gossip method.
	MNodePing = "node.ping"
	// MNodeIngress marks a connection as a forwarded-client ingress: the
	// requests that follow on this connection belong to one client of
	// the origin node, relayed verbatim.
	MNodeIngress = "node.ingress"
	// MNodeReplicate streams a slice of a room's event log (plus the Seq
	// high-water and trim marks) to the room's standby node.
	MNodeReplicate = "node.replicate"
)

// Method codes for v2 framing, continuing the append-only space started
// in codec2.go (1–24).
var nodeMethodCodes = map[uint16]string{
	25: MNodeHello,
	26: MNodePing,
	27: MNodeIngress,
	28: MNodeReplicate,
}

func init() {
	for code, method := range nodeMethodCodes {
		wire.RegisterMethodCode(code, method)
	}
}

// NodeHelloReq introduces the dialing node on a fresh node link.
type NodeHelloReq struct {
	Node  string // caller's node id
	Addr  string // caller's advertised client address
	Epoch uint64 // caller's membership epoch (incarnation counter)
}

// NodeHelloResp acknowledges the link with the responder's identity.
type NodeHelloResp struct {
	Node  string
	Epoch uint64
}

// NodePingReq is one liveness heartbeat.
type NodePingReq struct {
	Node     string
	Epoch    uint64
	Draining bool // caller is handing off and should be excluded from placement
}

// NodePingResp acknowledges a heartbeat; Live is the responder's current
// view of live node ids (itself included).
type NodePingResp struct {
	Node  string
	Epoch uint64
	Live  []string
}

// NodeIngressReq marks the calling connection as a forwarded-client
// ingress from Node. PeerID is the origin node's connection id for the
// client — a correlation handle for logs and stats, not a routing key.
type NodeIngressReq struct {
	Node   string
	PeerID uint64
}

// NodeIngressResp acknowledges the ingress marking.
type NodeIngressResp struct {
	Node string
}

// ReplicateReq ships a room's freshly buffered events to its standby,
// together with the owner's Seq high-water mark (which may exceed the
// last event's Seq — per-member presentation bumps consume sequence
// numbers without entering the change buffer) and trim watermark.
// DocID lets the standby rebuild the room around the right document on
// takeover.
type ReplicateReq struct {
	Room    string
	DocID   string
	Seq     uint64
	Trimmed uint64
	Events  []room.Event
}

// ReplicateResp acknowledges replication up to Seq.
type ReplicateResp struct {
	Seq uint64
}

// --- binary codecs ---------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *NodeHelloReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.String(r.Addr)
	e.Uvarint(r.Epoch)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodeHelloReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Addr = d.String()
	r.Epoch = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodeHelloResp) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Uvarint(r.Epoch)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodeHelloResp) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Epoch = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodePingReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Uvarint(r.Epoch)
	e.Bool(r.Draining)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodePingReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Epoch = d.Uvarint()
	r.Draining = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodePingResp) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Uvarint(r.Epoch)
	appendStrings(e, r.Live)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodePingResp) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Epoch = d.Uvarint()
	r.Live = decodeStrings(d)
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodeIngressReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Uvarint(r.PeerID)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodeIngressReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.PeerID = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodeIngressResp) AppendBody(e *wire.BodyEnc) { e.String(r.Node) }

// DecodeBody implements wire.BodyDecoder.
func (r *NodeIngressResp) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *ReplicateReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.DocID)
	e.Uvarint(r.Seq)
	e.Uvarint(r.Trimmed)
	e.Uvarint(uint64(len(r.Events)))
	for i := range r.Events {
		r.Events[i].AppendBody(e)
	}
}

// DecodeBody implements wire.BodyDecoder.
func (r *ReplicateReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.DocID = d.String()
	r.Seq = d.Uvarint()
	r.Trimmed = d.Uvarint()
	var err error
	r.Events, err = decodeEvents(d)
	return err
}

// AppendBody implements wire.BodyEncoder.
func (r *ReplicateResp) AppendBody(e *wire.BodyEnc) { e.Uvarint(r.Seq) }

// DecodeBody implements wire.BodyDecoder.
func (r *ReplicateResp) DecodeBody(d *wire.Dec) error {
	r.Seq = d.Uvarint()
	return d.Err()
}
