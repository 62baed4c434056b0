// Cluster node-link plane: the methods two mmconf nodes speak to each
// other over an ordinary wire-v2 connection — liveness (ping, which also
// identifies a fresh link), forwarded-client ingress marking, room
// replication to the failover standby, and the chunk pull behind it
// (sync.go). These ride the same frame format as client traffic, with
// hand-written binary codecs and stable method codes (25+; the client
// plane owns 1–24).
package proto

import (
	"maps"

	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Node-link method names.
const (
	// MNodePing is the recurring liveness heartbeat between nodes. The
	// first ping on a freshly dialed link doubles as its handshake: the
	// response names the node that answered.
	MNodePing = "node.ping"
	// MNodeIngress marks a connection as a forwarded-client ingress: the
	// requests that follow on this connection belong to one client of
	// the origin node, relayed verbatim.
	MNodeIngress = "node.ingress"
	// MNodeReplicate streams a slice of a room's event log (plus the Seq
	// high-water and trim marks) to the room's standby node, and with it,
	// when it may have changed, the room's dataset.
	MNodeReplicate = "node.replicate"
)

// Method codes for v2 framing, continuing the append-only space started
// in codec2.go (1–24). Retired codes stay holes, never reused: 25 was
// node.hello (the first ping identifies a link now) and 29
// node.syncmanifest (the dataset rides ReplicateReq).
var nodeMethodCodes = map[uint16]string{
	26: MNodePing,
	27: MNodeIngress,
	28: MNodeReplicate,
	30: MNodeFetchChunks,
}

func init() {
	for code, method := range nodeMethodCodes {
		wire.RegisterMethodCode(code, method)
	}
}

// NodeMethods returns every node-link method keyed by its method code:
// all a cluster node serves its peers.
func NodeMethods() map[uint16]string { return maps.Clone(nodeMethodCodes) }

// NodePingReq is one liveness heartbeat.
type NodePingReq struct {
	Node     string
	Draining bool // caller is handing off and should be excluded from placement
}

// NodePingResp acknowledges a heartbeat with the responder's identity.
type NodePingResp struct {
	Node string
}

// NodeIngressReq marks the calling connection as a forwarded-client
// ingress from Node; the response is empty.
type NodeIngressReq struct {
	Node string
}

// ReplicateReq ships a room's freshly buffered events to its standby,
// together with the owner's Seq high-water mark (which may exceed the
// last event's Seq — per-member presentation bumps consume sequence
// numbers without entering the change buffer) and trim watermark.
// DocID lets the standby rebuild the room around the right document on
// takeover.
//
// Node, Rows and Manifests are the room's dataset, empty when the frame
// does not carry it: the media rows its document's components
// reference, the document row last, and a manifest for every distinct
// blob those rows name. No payload bytes ride in the frame — the
// receiver pulls exactly the chunks it is missing from Node.
type ReplicateReq struct {
	Room    string
	DocID   string
	Seq     uint64
	Trimmed uint64
	Events  []room.Event

	Node      string
	Rows      []mediadb.DatasetRow
	Manifests []BlobManifest
}

// ReplicateResp acknowledges replication up to Seq.
type ReplicateResp struct {
	Seq uint64
}

// --- binary codecs ---------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *NodePingReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Bool(r.Draining)
}

// DecodeBody implements wire.BodyDecoder.
func (r *NodePingReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Draining = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodePingResp) AppendBody(e *wire.BodyEnc) { e.String(r.Node) }

// DecodeBody implements wire.BodyDecoder.
func (r *NodePingResp) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *NodeIngressReq) AppendBody(e *wire.BodyEnc) { e.String(r.Node) }

// DecodeBody implements wire.BodyDecoder.
func (r *NodeIngressReq) DecodeBody(d *wire.Dec) error {
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
	e.String(r.Node)
	appendRows(e, r.Rows)
	appendManifests(e, r.Manifests)
}

// DecodeBody implements wire.BodyDecoder. The standby decodes each frame
// over the value its last frame of the method decoded into (wire.Typed),
// so a room and document it names again cost nothing and the events land
// in the array the last frame's did.
func (r *ReplicateReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.StringOver(r.Room)
	r.DocID = d.StringOver(r.DocID)
	r.Seq = d.Uvarint()
	r.Trimmed = d.Uvarint()
	var err error
	if r.Events, err = decodeEvents(d, r.Events); err != nil {
		return err
	}
	r.Node = d.String()
	if r.Rows, err = decodeRows(d); err != nil {
		return err
	}
	r.Manifests = decodeManifests(d)
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *ReplicateResp) AppendBody(e *wire.BodyEnc) { e.Uvarint(r.Seq) }

// DecodeBody implements wire.BodyDecoder.
func (r *ReplicateResp) DecodeBody(d *wire.Dec) error {
	r.Seq = d.Uvarint()
	return d.Err()
}
