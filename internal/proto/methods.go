package proto

import (
	"slices"

	"mmconf/internal/wire"
)

// This file is the protocol's one method table — what an RMI remote
// interface declares once per method (§5.3): its name, its stable u16
// code in v2 frames, who calls it, the admission class the server sheds
// it by, and whether it addresses a room. The wire framing, the
// server's admission step and the cluster's routing tier all read it.

// Plane says which side calls a method.
type Plane uint8

const (
	PlaneClient Plane = iota // a client's request to the server
	PlanePush                // the server's push to a client
	PlaneNode                // one cluster node's request to another
)

// Method is one row of the method table.
type Method struct {
	Name string
	// Code is the method's 2-byte name in v2 frames. Codes are protocol
	// surface shared by every binary speaking v2: append-only, and a
	// retired code stays a hole, never reused.
	Code  uint16
	Plane Plane
	// Class is the admission priority: control (session control, the
	// metrics surface and the node link) sheds last, bulk (media fetches
	// and writes: expensive and retryable) first, the conference hot
	// path in between.
	Class wire.Priority
	// Room marks a room-scoped request: it encodes Room as its first
	// string field, and a cluster routes it to the room's owner.
	Room bool
}

// methods is the table, in code order. Codes 25 (node.hello: the first
// ping identifies a link now) and 29 (node.syncmanifest: the dataset
// rides ReplicateReq) are retired.
var methods = []Method{
	// name, code, plane, admission class, room-scoped
	{MListDocuments, 1, PlaneClient, wire.PriorityBulk, false},
	{MGetDocument, 2, PlaneClient, wire.PriorityBulk, false},
	{MGetImage, 3, PlaneClient, wire.PriorityBulk, false},
	{MGetAudio, 4, PlaneClient, wire.PriorityBulk, false},
	{MGetCmp, 5, PlaneClient, wire.PriorityBulk, false},
	{MPutImageTexts, 6, PlaneClient, wire.PriorityBulk, false},
	{MJoinRoom, 7, PlaneClient, wire.PriorityControl, true},
	{MLeaveRoom, 8, PlaneClient, wire.PriorityControl, true},
	{MChoice, 9, PlaneClient, wire.PriorityInteractive, true},
	{MOperation, 10, PlaneClient, wire.PriorityInteractive, true},
	{MAnnotate, 11, PlaneClient, wire.PriorityInteractive, true},
	{MDeleteAnnotation, 12, PlaneClient, wire.PriorityInteractive, true},
	{MFreeze, 13, PlaneClient, wire.PriorityInteractive, true},
	{MRelease, 14, PlaneClient, wire.PriorityInteractive, true},
	{MShareSearch, 15, PlaneClient, wire.PriorityInteractive, true},
	{MChat, 16, PlaneClient, wire.PriorityInteractive, true},
	{MHistory, 17, PlaneClient, wire.PriorityControl, true},
	{MBroadcastStart, 18, PlaneClient, wire.PriorityInteractive, true},
	{MBroadcastStop, 19, PlaneClient, wire.PriorityInteractive, true},
	{MSaveMinutes, 20, PlaneClient, wire.PriorityBulk, true},
	{MStats, 21, PlaneClient, wire.PriorityControl, false},
	{MTraces, 22, PlaneClient, wire.PriorityControl, false},
	{MEvent, 23, PlanePush, wire.PriorityInteractive, false},
	{MPrefetchPush, 24, PlanePush, wire.PriorityInteractive, false},
	{MNodePing, 26, PlaneNode, wire.PriorityControl, false},
	{MNodeIngress, 27, PlaneNode, wire.PriorityControl, false},
	{MNodeReplicate, 28, PlaneNode, wire.PriorityControl, false},
	{MNodeFetchChunks, 30, PlaneNode, wire.PriorityControl, false},
}

// byName indexes the table for the per-request lookups.
var byName = make(map[string]Method, len(methods))

func init() {
	for _, m := range methods {
		wire.RegisterMethodCode(m.Code, m.Name)
		byName[m.Name] = m
	}
}

// Methods returns a copy of the method table, in code order.
func Methods() []Method { return slices.Clone(methods) }

// Lookup returns the table's row for the named method.
func Lookup(name string) (Method, bool) {
	m, ok := byName[name]
	return m, ok
}

// RoomOf is the routing tier's view of a request: the room a
// room-scoped request addresses, read as its leading length-prefixed
// string without decoding the body. The name aliases payload, so it is
// valid only as long as payload is; nothing is copied. ok is false for
// non-room methods and undecodable payloads — the router should pass
// those through and let the handler produce the real error.
func RoomOf(method string, payload []byte) (room []byte, ok bool) {
	if m, ok := byName[method]; !ok || !m.Room {
		return nil, false
	}
	d := wire.NewDec(payload)
	name := d.Bytes()
	if d.Err() != nil {
		return nil, false
	}
	return name, len(name) > 0
}
