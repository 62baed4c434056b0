package proto

import "mmconf/internal/wire"

// This file is the routing tier's view of the client protocol: which
// methods are scoped to a room (and therefore to the cluster node that
// owns the room), and how to recover the room name from a request
// payload without decoding the full body. Every room-scoped request
// encodes Room as its first string field (see codec2.go), so a router
// reads one length-prefixed string.

// roomScoped is the set of methods that address a specific room.
var roomScoped = map[string]bool{
	MJoinRoom:         true,
	MLeaveRoom:        true,
	MChoice:           true,
	MOperation:        true,
	MAnnotate:         true,
	MDeleteAnnotation: true,
	MFreeze:           true,
	MRelease:          true,
	MShareSearch:      true,
	MChat:             true,
	MHistory:          true,
	MBroadcastStart:   true,
	MBroadcastStop:    true,
	MSaveMinutes:      true,
}

// RoomScoped reports whether method addresses a specific room — the
// requests a cluster routing tier must steer to the room's owner.
func RoomScoped(method string) bool { return roomScoped[method] }

// RoomOf extracts the room name from a room-scoped request payload by
// reading its leading length-prefixed string. ok is false for non-room
// methods and undecodable payloads — the router should pass those
// through and let the handler produce the real error.
func RoomOf(method string, payload []byte) (room string, ok bool) {
	if !roomScoped[method] {
		return "", false
	}
	d := wire.NewDec(payload)
	name := d.String()
	if d.Err() != nil {
		return "", false
	}
	return name, name != ""
}
