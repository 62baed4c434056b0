// Package core is the presentation module of the conferencing system —
// the paper's primary contribution (§4). It orchestrates, for one shared
// document under concurrent viewing, everything the interaction server
// needs: the accumulated viewer choices (the evidence of the constrained
// optimization), per-viewer extensions of the shared network by private
// operation variables (§4.2), the bandwidth/buffer tuning variables of
// §4.4, and
// the recomputation of the optimal presentation after every event.
//
// The flow mirrors Fig. 4 of the paper: on document retrieval the engine
// serves defaultPresentation(); on every viewer choice the interaction
// server calls Choice/Operation and pushes the resulting views to all
// clients.
package core

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/prefetch"
)

// Engine manages the presentation state of one document in one room.
// All methods are safe for concurrent use.
type Engine struct {
	mu sync.Mutex
	// doc is the shared document (hierarchy + author network).
	doc *document.Document
	// choices is the accumulated shared evidence: the most recent
	// explicit presentation selection per shared variable, across all
	// viewers.
	choices cpnet.Outcome
	// choiceBy remembers which viewer pinned each variable, so a
	// viewer's choices can be retracted when they leave.
	choiceBy map[string]string
	// viewers holds each joined viewer's own state.
	viewers map[string]*viewerState

	// gen counts mutations: every method that changes the document, the
	// evidence, the viewer set, an overlay or an environment bumps it.
	// memo holds one solved view per evidence class; memoGen is the last
	// generation one was looked up at. An entry not current at gen is
	// brought up to it on its next lookup (see classLocked).
	gen, memoGen uint64
	memo         []classView
	// schema is the document compiled for solving; nil after the
	// document changed, until the next solve compiles it again.
	schema *document.Schema
	// solver, pins and changed are classLocked's work space.
	solver  document.Solver
	pins    []uint8
	changed []int
	// rank is the ranking PrefetchRank runs off the lock: always
	// prefetch.RankSchema, but for a test that parks it mid-rank.
	rank func(*document.Schema, []uint8) ([]prefetch.Candidate, error)
}

// viewerState is one joined viewer's own state: their extension of the
// shared network and the evidence only it reads.
type viewerState struct {
	// env is the viewer's measured environment (e.g. the QoS loop's
	// bandwidth level), which conditions only their view.
	env cpnet.Outcome
	ov  *cpnet.Overlay
	// pins is the viewer's evidence on their private variables.
	pins cpnet.Outcome
	// schema is the document's schema extended by ov, kept until the
	// document or ov changes; nil when stale.
	schema *document.Schema
	// solved is the view of a viewer with private variables, derived from
	// their class's view from; nil when stale. view is its maps.
	from, solved *document.Solved
	view         document.View
}

// classView is the solved view of one evidence class: the viewers whose
// environment equals env. Their shared evidence is the same, so is the
// base completion (§4.2: "the base outcome is exactly what every other
// viewer would compute"); a viewer's private variables extend it.
type classView struct {
	env cpnet.Outcome
	// pins is the evidence solved completes, as a vector under its schema.
	pins   []uint8
	solved *document.Solved
	// view is solved's maps, built for the first API read at gen.
	view document.View
	// gen is the generation solved is current at.
	gen uint64
}

// NewEngine wraps a document for cooperative presentation.
func NewEngine(doc *document.Document) (*Engine, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	if err := doc.Prefs.Validate(); err != nil {
		return nil, fmt.Errorf("core: document %s: %w", doc.ID, err)
	}
	return &Engine{
		doc:      doc,
		choices:  cpnet.Outcome{},
		choiceBy: make(map[string]string),
		viewers:  make(map[string]*viewerState),
		rank:     prefetch.RankSchema,
	}, nil
}

// Document returns the engine's document, for reading. Edits go through
// EditDocument: the engine's lock is what keeps a solve from seeing a
// half-added component, and its solved views are kept until it is told
// the document changed.
func (e *Engine) Document() *document.Document { return e.doc }

// EditDocument runs edit on the document under the engine's lock and
// drops the solved views, whatever edit returns. edit must not call back
// into the engine.
func (e *Engine) EditDocument(edit func(*document.Document) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
	defer e.documentChangedLocked()
	return edit(e.doc)
}

// documentChangedLocked drops what was compiled from the document before
// an edit or a shared operation: its schema and every viewer's extension
// of it. A private variable the change left without support goes, with
// its pin (see cpnet.Overlay.Prune).
func (e *Engine) documentChangedLocked() {
	e.schema = nil
	for _, vw := range e.viewers {
		vw.schema = nil
		for _, name := range vw.ov.Prune() {
			delete(vw.pins, name)
		}
	}
}

// Join registers a viewer, creating their private overlay, and returns
// their initial view.
func (e *Engine) Join(viewer string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.addViewerLocked(viewer); err != nil {
		return document.View{}, err
	}
	return e.viewForLocked(viewer)
}

// AddViewer is Join without the view: the room's path, which reads the
// viewer's Solved view instead.
func (e *Engine) AddViewer(viewer string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addViewerLocked(viewer)
}

func (e *Engine) addViewerLocked(viewer string) error {
	if viewer == "" {
		return fmt.Errorf("core: empty viewer name")
	}
	if _, dup := e.viewers[viewer]; dup {
		return fmt.Errorf("core: viewer %q already joined", viewer)
	}
	e.viewers[viewer] = &viewerState{ov: e.doc.NewOverlay(), pins: cpnet.Outcome{}}
	e.gen++
	return nil
}

// Leave retracts the viewer's choices and discards their private
// variables. It returns true if the shared presentation changed (the
// server should then push fresh views to the remaining viewers).
func (e *Engine) Leave(viewer string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.viewers[viewer]; !ok {
		return false, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	delete(e.viewers, viewer)
	e.gen++
	changed := false
	for variable, by := range e.choiceBy {
		if by == viewer {
			delete(e.choices, variable)
			delete(e.choiceBy, variable)
			changed = true
		}
	}
	return changed, nil
}

// Viewers lists the joined viewers, sorted.
func (e *Engine) Viewers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.viewers))
	for v := range e.viewers {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Choice records a viewer's explicit presentation selection — "a click
// indicating his desire to view some item in a particular form" — and
// returns the viewer's updated view. Passing an empty value retracts the
// viewer's previous choice on that variable.
func (e *Engine) Choice(viewer, variable, value string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.setChoiceLocked(viewer, variable, value); err != nil {
		return document.View{}, err
	}
	return e.viewForLocked(viewer)
}

// SetChoice is Choice without the view: the room's path, which reads the
// viewers' Solved views instead.
func (e *Engine) SetChoice(viewer, variable, value string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.setChoiceLocked(viewer, variable, value)
}

func (e *Engine) setChoiceLocked(viewer, variable, value string) error {
	vw, ok := e.viewers[viewer]
	if !ok {
		return fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if vw.ov.Owns(variable) {
		return e.pinPrivateLocked(vw, variable, value)
	}
	if value == "" {
		if e.choiceBy[variable] != "" {
			delete(e.choices, variable)
			delete(e.choiceBy, variable)
			e.gen++
		}
		return nil
	}
	if !e.doc.Prefs.HasVariable(variable) {
		return fmt.Errorf("core: unknown variable %q", variable)
	}
	if !e.doc.Prefs.HasValue(variable, value) {
		return fmt.Errorf("core: variable %q has no value %q", variable, value)
	}
	e.choices[variable] = value
	e.choiceBy[variable] = viewer
	e.gen++
	return nil
}

// pinPrivateLocked pins one of the viewer's private variables in their
// own evidence, or retracts the pin (value ""): no other viewer reads it.
func (e *Engine) pinPrivateLocked(vw *viewerState, variable, value string) error {
	switch value {
	case "":
		delete(vw.pins, variable)
	case cpnet.OpApplied, cpnet.OpFlat:
		vw.pins[variable] = value
	default:
		return fmt.Errorf("core: variable %q has no value %q", variable, value)
	}
	vw.solved = nil
	e.gen++
	return nil
}

// Operation records a media operation per §4.2. If private is false the
// derived variable enters the shared network and every viewer sees it;
// otherwise it lives only in this viewer's overlay ("the viewer can decide
// about the importance of this operation for the rest of the viewers").
func (e *Engine) Operation(viewer, component, op, activeWhen string, private bool) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	vw, ok := e.viewers[viewer]
	if !ok {
		return "", fmt.Errorf("core: viewer %q not joined", viewer)
	}
	e.gen++
	if private {
		vw.schema = nil
		return e.doc.ApplyOperationPrivate(vw.ov, component, op, activeWhen)
	}
	defer e.documentChangedLocked()
	return e.doc.ApplyOperation(component, op, activeWhen)
}

// ViewFor computes the current optimal view for one viewer: the shared
// completion under all accumulated choices, extended by the viewer's
// private variables.
func (e *Engine) ViewFor(viewer string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewForLocked(viewer)
}

// viewForLocked returns the viewer's view as maps, built once per solved
// view: the viewers of one evidence class without private variables take
// the same View value, which is why a View is read-only.
func (e *Engine) viewForLocked(viewer string) (document.View, error) {
	v, view, err := e.solvedLocked(viewer)
	if err != nil {
		return document.View{}, err
	}
	if view.Outcome == nil {
		*view = v.View()
	}
	return *view, nil
}

// Solved returns the viewer's solved view: the room's path, which diffs
// and encodes it and never builds its maps. Viewers of one evidence class
// get the same *Solved, unless they have private variables: each of those
// gets their class's, extended by their own.
func (e *Engine) Solved(viewer string) (*document.Solved, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, _, err := e.solvedLocked(viewer)
	return v, err
}

// solvedLocked returns the viewer's solved view at this generation and
// the slot its maps are kept in. Every viewer is served from their
// evidence class's view; a viewer with private variables gets it
// extended by their own, derived again only when the class's view, the
// schema or their private evidence changed.
func (e *Engine) solvedLocked(viewer string) (*document.Solved, *document.View, error) {
	vw, ok := e.viewers[viewer]
	if !ok {
		return nil, nil, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	c, err := e.classLocked(viewer)
	if err != nil {
		return nil, nil, err
	}
	if vw.ov.Empty() {
		return c.solved, &c.view, nil
	}
	if vw.schema == nil {
		if vw.schema, err = c.solved.Schema().WithPrivate(vw.ov); err != nil {
			return nil, nil, fmt.Errorf("document %s: %w", e.doc.ID, err)
		}
	}
	if vw.solved == nil || vw.from != c.solved || vw.solved.Schema() != vw.schema {
		v, err := vw.schema.Derive(c.solved, vw.pins)
		if err != nil {
			return nil, nil, fmt.Errorf("document %s: %w", e.doc.ID, err)
		}
		vw.from, vw.solved, vw.view = c.solved, v, document.View{}
	}
	return vw.solved, &vw.view, nil
}

// schemaLocked returns the document compiled for solving, compiling it
// after an edit.
func (e *Engine) schemaLocked() (*document.Schema, error) {
	if e.schema == nil {
		s, err := e.doc.Schema()
		if err != nil {
			return nil, err
		}
		e.schema = s
	}
	return e.schema, nil
}

// classLocked returns the memo entry of the viewer's evidence class,
// current at this generation. An entry current at an earlier one is
// brought up to date from its own view when the document has not changed
// since: kept as it is when the class's evidence did not change (a join,
// say, or another class's choice), otherwise re-solved by propagation
// from the variables whose evidence did. After an edit it is solved
// whole. Entries not looked up at the last generation are dropped at the
// first lookup of a new one.
func (e *Engine) classLocked(viewer string) (*classView, error) {
	if e.memoGen != e.gen {
		kept := e.memo[:0]
		for _, c := range e.memo {
			if c.gen == e.memoGen {
				kept = append(kept, c)
			}
		}
		clear(e.memo[len(kept):]) // drop the stale views with their slots
		e.memo, e.memoGen = kept, e.gen
	}
	env := e.viewers[viewer].env
	var c *classView
	for i := range e.memo {
		if maps.Equal(e.memo[i].env, env) {
			c = &e.memo[i]
			break
		}
	}
	if c != nil && c.gen == e.gen {
		return c, nil
	}
	schema, err := e.schemaLocked()
	if err != nil {
		return nil, err
	}
	pins, err := e.pinsLocked(schema, viewer, e.pins)
	if err != nil {
		return nil, err
	}
	if c == nil || c.solved.Schema() != schema {
		v, err := schema.Solve(pins)
		if err != nil {
			return nil, fmt.Errorf("document %s: %w", e.doc.ID, err)
		}
		if c == nil {
			e.memo = append(e.memo, classView{env: maps.Clone(env)})
			c = &e.memo[len(e.memo)-1]
		}
		c.solved, c.view, c.gen = v, document.View{}, e.gen
		c.pins, e.pins = pins, c.pins
		return c, nil
	}
	e.changed = e.changed[:0]
	for i := range pins {
		if pins[i] != c.pins[i] {
			e.changed = append(e.changed, i)
		}
	}
	c.gen = e.gen
	if len(e.changed) == 0 {
		e.pins = pins
		return c, nil
	}
	v, _, err := e.solver.Resolve(c.solved, pins, e.changed, nil)
	if err != nil {
		return nil, fmt.Errorf("document %s: %w", e.doc.ID, err)
	}
	c.solved, c.view = v, document.View{}
	c.pins, e.pins = pins, c.pins
	return c, nil
}

// evidenceLocked calls pin with each variable the viewer's shared
// evidence pins and its value: the viewer's measured environment, then the
// shared choices. A room-wide environment pin (a choice no viewer owns)
// yields to the viewer's own measurement of the same variable; an
// explicit viewer choice wins over both. Every solve and the prefetch
// ranking read evidence here, so they cannot disagree.
func (e *Engine) evidenceLocked(viewer string, pin func(variable, value string)) {
	env := e.viewers[viewer].env
	for variable, value := range env {
		if e.doc.Prefs.HasVariable(variable) {
			pin(variable, value)
		}
	}
	for variable, value := range e.choices {
		if !e.doc.Prefs.HasVariable(variable) {
			continue
		}
		if _, measured := env[variable]; measured && e.choiceBy[variable] == "" {
			continue
		}
		pin(variable, value)
	}
}

// pinsLocked writes the viewer's shared evidence into an evidence vector
// under schema, reusing buf when it fits.
func (e *Engine) pinsLocked(schema *document.Schema, viewer string, buf []uint8) ([]uint8, error) {
	net := schema.Network()
	if len(buf) != net.Len() {
		buf = make([]uint8, net.Len())
	}
	for i := range buf {
		buf[i] = cpnet.Unpinned
	}
	var err error
	e.evidenceLocked(viewer, func(variable, value string) {
		if perr := net.Pin(buf, variable, value); perr != nil && err == nil {
			err = fmt.Errorf("document %s: %w", e.doc.ID, perr)
		}
	})
	return buf, err
}

// Views computes the current view of every joined viewer as maps. Viewers
// who share a solved view get the same View value.
func (e *Engine) Views() (map[string]document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]document.View, len(e.viewers))
	for viewer := range e.viewers {
		v, err := e.viewForLocked(viewer)
		if err != nil {
			return nil, err
		}
		out[viewer] = v
	}
	return out, nil
}

// PrefetchRank computes the push-prefetch candidate ranking for one
// viewer: under the engine lock it takes the compiled document and the
// viewer's evidence — the evidence the viewer's own view is solved from —
// and it ranks outside the lock, so a ranking of a wide document holds up
// no choice, join or leave. The compiled document is immutable, so a
// concurrent media operation cannot change it mid-rank.
func (e *Engine) PrefetchRank(viewer string) ([]prefetch.Candidate, error) {
	e.mu.Lock()
	if _, ok := e.viewers[viewer]; !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	schema, err := e.schemaLocked()
	var pins []uint8
	if err == nil {
		pins, err = e.pinsLocked(schema, viewer, nil)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return e.rank(schema, pins)
}

// Choices returns a copy of the accumulated shared evidence.
func (e *Engine) Choices() cpnet.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.choices.Clone()
}
