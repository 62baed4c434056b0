package proto

import (
	"testing"

	"mmconf/internal/blob"
	"mmconf/internal/media/voice"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// FuzzRouteFrame throws arbitrary payload bytes at what a routing node
// reads first: the cluster-plane body codecs (node ping, forwarded
// ingress, event-log replication), the room-scoped client
// requests it steers by their leading Room field. Decoders and RoomOf
// must never panic, whatever lengths or truncations arrive; any accepted
// body must re-encode and re-decode identically (the codec is its own
// inverse). The routing errors travel as a response's status and fields,
// which internal/wire's FuzzParseFrame round-trips.
func FuzzRouteFrame(f *testing.F) {
	seeds := []wire.BodyEncoder{
		&NodePingReq{Node: "n1", Draining: true},
		&NodePingResp{Node: "n2"},
		&NodeIngressReq{Node: "n1"},
		&ReplicateReq{
			Room: "tumor-board", DocID: "patient-001", Seq: 19, Trimmed: 2,
			Events: []room.Event{
				{Seq: 18, Room: "tumor-board", Actor: "alice", Kind: room.EvChat, Text: "hello"},
				{Seq: 19, Room: "tumor-board", Actor: "bob", Kind: room.EvChoice, Variable: "modality", Value: "xray"},
			},
		},
		// A frame carrying a dataset: the document row and its manifest.
		&ReplicateReq{
			Room: "tumor-board", DocID: "patient-001", Seq: 20, Trimmed: 2, Node: "n1",
			Rows: []mediadb.DatasetRow{{Table: "DOCUMENT_OBJECTS_TABLE", Row: store.Row{
				"patient-001", "CT study", blob.Handle{Digest: blob.Digest{0xAA}, Length: 512}}}},
			Manifests: []BlobManifest{{Digest: blob.Digest{0xAA}, Length: 512, Chunks: []blob.Digest{{0xAA}}}},
		},
		&ReplicateResp{Seq: 19},
		&OperationReq{Room: "tumor-board", User: "alice", Component: "ct", Op: "zoom", ActiveWhen: "always", Private: true},
		&AnnotateReq{Room: "tumor-board", User: "bob", ObjectID: 9, Kind: 1, X1: 1, Y1: -2, X2: 3, Y2: 4, Text: "note", Intensity: 0.5},
		&DeleteAnnotationReq{Room: "tumor-board", User: "bob", ObjectID: 9, AnnotationID: 2},
		&FreezeReq{Room: "tumor-board", User: "bob", ObjectID: 9},
		&ShareSearchReq{Room: "tumor-board", User: "alice", Speaker: true, Keyword: "tumor",
			Hits: []voice.Hit{{Word: "tumor", Start: 100, End: 250, Score: -1.25}}},
		&BroadcastReq{Room: "tumor-board", User: "alice"},
		&SaveMinutesReq{Room: "tumor-board", User: "alice"},
	}
	for _, b := range seeds {
		data := wire.MarshalBody(b)
		f.Add(data)
		// Truncation at every prefix: each must be rejected cleanly.
		for i := 0; i < len(data); i++ {
			f.Add(data[:i])
		}
	}
	// Hostile lengths: uvarints claiming payloads far beyond the input.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})

	fresh := []func() wire.BodyDecoder{
		func() wire.BodyDecoder { return new(NodePingReq) },
		func() wire.BodyDecoder { return new(NodePingResp) },
		func() wire.BodyDecoder { return new(NodeIngressReq) },
		func() wire.BodyDecoder { return new(ReplicateReq) },
		func() wire.BodyDecoder { return new(ReplicateResp) },
		func() wire.BodyDecoder { return new(OperationReq) },
		func() wire.BodyDecoder { return new(AnnotateReq) },
		func() wire.BodyDecoder { return new(DeleteAnnotationReq) },
		func() wire.BodyDecoder { return new(FreezeReq) },
		func() wire.BodyDecoder { return new(ShareSearchReq) },
		func() wire.BodyDecoder { return new(BroadcastReq) },
		func() wire.BodyDecoder { return new(SaveMinutesReq) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range fresh {
			v := mk()
			if err := wire.DecodeBodyBytes(data, v); err != nil {
				continue
			}
			enc, ok := v.(wire.BodyEncoder)
			if !ok {
				t.Fatalf("%T decodes but does not encode", v)
			}
			out := wire.MarshalBody(enc)
			v2 := mk()
			if err := wire.DecodeBodyBytes(out, v2); err != nil {
				t.Fatalf("%T: accepted %d bytes but re-encoded form fails: %v", v, len(data), err)
			}
			if len(wire.MarshalBody(v2.(wire.BodyEncoder))) != len(out) {
				t.Fatalf("%T: re-encode not a fixed point", v)
			}
		}
		// The router reads the room name off the front of whatever
		// arrives: it must agree with a full decode whenever one succeeds.
		if name, ok := RoomOf(MFreeze, data); ok {
			var req FreezeReq
			if err := wire.DecodeBodyBytes(data, &req); err == nil && req.Room != string(name) {
				t.Fatalf("RoomOf = %q but the body decodes to room %q", name, req.Room)
			}
		}
	})
}
