package room

import (
	"fmt"

	"mmconf/internal/media/image"
)

// This file is shared annotation and the freeze/release discipline: the
// overlays partners draw on images, and one partner holding an object
// from the rest while they do.

// Annotate writes a text or line element on an image object and
// propagates it — "when one user writes some text on an image, the others
// can see the text".
func (r *Room) Annotate(actor string, objectID uint64, kind image.AnnotationKind,
	x1, y1, x2, y2 int, text string, intensity float64) (int, error) {
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[actor]; !ok {
		return 0, fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok && holder != actor {
		return 0, fmt.Errorf("room %s: object %d is frozen by %s", r.Name, objectID, holder)
	}
	ann := r.annotatedLocked(objectID)
	var id int
	var err error
	switch kind {
	case image.TextElement:
		id, err = ann.AddText(x1, y1, text, intensity)
	case image.LineElement:
		id = ann.AddLine(x1, y1, x2, y2, intensity)
	default:
		return 0, fmt.Errorf("room %s: unknown annotation kind %d", r.Name, kind)
	}
	if err != nil {
		return 0, err
	}
	stored := ann.Annotations[len(ann.Annotations)-1]
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvAnnotate, ObjectID: objectID,
		Annotation: stored, AnnotationID: id,
	}, false)
	return id, nil
}

// annotatedLocked returns (creating if needed) the annotation overlay of
// an object. The room keeps the overlay, not the raster under it: the
// clients that display the image draw the overlay on it.
func (r *Room) annotatedLocked(objectID uint64) *image.Annotated {
	ann, ok := r.anns[objectID]
	if !ok {
		ann = image.NewAnnotated(nil)
		r.anns[objectID] = ann
	}
	return ann
}

// DeleteAnnotation removes an overlay element and propagates the removal.
func (r *Room) DeleteAnnotation(actor string, objectID uint64, annotationID int) error {
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok && holder != actor {
		return fmt.Errorf("room %s: object %d is frozen by %s", r.Name, objectID, holder)
	}
	ann, ok := r.anns[objectID]
	if !ok {
		return fmt.Errorf("room %s: object %d has no annotations", r.Name, objectID)
	}
	if err := ann.Delete(annotationID); err != nil {
		return err
	}
	r.broadcastLocked(Event{
		Actor: actor, Kind: EvDeleteAnnotation,
		ObjectID: objectID, AnnotationID: annotationID,
	}, false)
	return nil
}

// Freeze locks an object against changes by other partners.
func (r *Room) Freeze(actor string, objectID uint64) error {
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[actor]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	if holder, ok := r.frozen[objectID]; ok {
		return fmt.Errorf("room %s: object %d already frozen by %s", r.Name, objectID, holder)
	}
	r.frozen[objectID] = actor
	r.broadcastLocked(Event{Actor: actor, Kind: EvFreeze, ObjectID: objectID}, false)
	return nil
}

// Release lifts a freeze; only the holder may release.
func (r *Room) Release(actor string, objectID uint64) error {
	r.mu.Lock()
	defer r.unlock()
	holder, ok := r.frozen[objectID]
	if !ok {
		return fmt.Errorf("room %s: object %d is not frozen", r.Name, objectID)
	}
	if holder != actor {
		return fmt.Errorf("room %s: object %d is frozen by %s, not %s", r.Name, objectID, holder, actor)
	}
	delete(r.frozen, objectID)
	r.broadcastLocked(Event{Actor: actor, Kind: EvRelease, ObjectID: objectID}, false)
	return nil
}
