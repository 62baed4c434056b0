package room

import (
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/wire"
)

// Binary codec for Event — the single hottest payload on the wire: every
// propagated room change crosses as one of these, fanned out to every
// member. Fields encode in declaration order; zero-length maps and
// slices decode as nil.

// MarshalEventBinary encodes one event as a flat wire payload. The error
// is always nil; the signature is the one benchmark/ compiles against.
func MarshalEventBinary(ev Event) ([]byte, error) {
	return wire.MarshalBody(&ev), nil
}

// AppendBody implements wire.BodyEncoder.
func (ev *Event) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(ev.Seq)
	e.String(ev.Room)
	e.String(ev.Actor)
	e.Uvarint(uint64(ev.Kind))
	e.String(ev.Variable)
	e.String(ev.Value)
	e.String(ev.Component)
	e.String(ev.Op)
	e.String(ev.ActiveWhen)
	e.String(ev.DerivedVar)
	e.Bool(ev.Private)
	e.Uvarint(ev.ObjectID)
	appendAnnotation(e, &ev.Annotation)
	e.Varint(int64(ev.AnnotationID))
	ev.appendChange(e)
	e.String(ev.Keyword)
	AppendHits(e, ev.Hits)
	e.String(ev.Text)
	e.Bool(ev.Resync)
}

// DecodeBody implements wire.BodyDecoder.
func (ev *Event) DecodeBody(d *wire.Dec) error {
	ev.Seq = d.Uvarint()
	ev.Room = d.String()
	ev.Actor = d.String()
	ev.Kind = EventKind(d.Uvarint())
	ev.Variable = d.String()
	ev.Value = d.String()
	ev.Component = d.String()
	ev.Op = d.String()
	ev.ActiveWhen = d.String()
	ev.DerivedVar = d.String()
	ev.Private = d.Bool()
	ev.ObjectID = d.Uvarint()
	decodeAnnotation(d, &ev.Annotation)
	ev.AnnotationID = int(d.Varint())
	if err := ev.decodeChange(d); err != nil {
		return err
	}
	ev.Keyword = d.String()
	ev.Hits = DecodeHits(d)
	ev.Text = d.String()
	ev.Resync = d.Bool()
	ev.shared, ev.held, ev.view, ev.changeBytes = nil, nil, nil, 0
	return d.Err()
}

// AppendHits writes a count-prefixed run of search hits (shared with
// proto.ShareSearchReq, which carries the same slice).
func AppendHits(e *wire.BodyEnc, hits []voice.Hit) {
	e.Uvarint(uint64(len(hits)))
	for i := range hits {
		h := &hits[i]
		e.String(h.Word)
		e.Varint(int64(h.Start))
		e.Varint(int64(h.End))
		e.F64(h.Score)
	}
}

// DecodeHits reads what AppendHits wrote; an empty run decodes as nil.
// A failure latches in d.
func DecodeHits(d *wire.Dec) []voice.Hit {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil
	}
	hits := make([]voice.Hit, 0, int(min(n, 4096)))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var h voice.Hit
		h.Word = d.String()
		h.Start = int(d.Varint())
		h.End = int(d.Varint())
		h.Score = d.F64()
		hits = append(hits, h)
	}
	return hits
}

func appendAnnotation(e *wire.BodyEnc, a *image.Annotation) {
	e.Varint(int64(a.ID))
	e.Uvarint(uint64(a.Kind))
	e.Varint(int64(a.X1))
	e.Varint(int64(a.Y1))
	e.Varint(int64(a.X2))
	e.Varint(int64(a.Y2))
	e.String(a.Text)
	e.F64(a.Intensity)
}

func decodeAnnotation(d *wire.Dec, a *image.Annotation) {
	a.ID = int(d.Varint())
	a.Kind = image.AnnotationKind(d.Uvarint())
	a.X1 = int(d.Varint())
	a.Y1 = int(d.Varint())
	a.X2 = int(d.Varint())
	a.Y2 = int(d.Varint())
	a.Text = d.String()
	a.Intensity = d.F64()
}
