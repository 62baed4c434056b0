package core

import (
	"maps"
	"strings"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
)

// referenceViewLocked solves a viewer's view the map-based way, trusting
// nothing the engine keeps: the viewer's network as §4.2 says not to
// build it — the document's duplicated and extended by each of the
// viewer's private variables, replayed as the shared update would make
// it — completed under the viewer's shared and private evidence and
// compiled anew. Callers hold e.mu.
func (e *Engine) referenceViewLocked(viewer string) (document.View, error) {
	vw := e.viewers[viewer]
	doc := *e.doc
	doc.Prefs = e.doc.Prefs.Clone()
	for _, pv := range vw.ov.Private() {
		op := strings.TrimPrefix(pv.Name, pv.Parent+"/")
		if _, err := doc.Prefs.AddOperationVariable(pv.Parent, op, pv.ActiveWhen); err != nil {
			return document.View{}, err
		}
	}
	ev := cpnet.Outcome{}
	e.evidenceLocked(viewer, func(variable, value string) { ev[variable] = value })
	maps.Copy(ev, vw.pins)
	return doc.ReconfigPresentation(ev)
}
