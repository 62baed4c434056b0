// Package core is the presentation module of the conferencing system —
// the paper's primary contribution (§4). It orchestrates, for one shared
// document under concurrent viewing, everything the interaction server
// needs: the accumulated viewer choices (the evidence of the constrained
// optimization), per-viewer overlay networks for private operation
// variables (§4.2), the bandwidth/buffer tuning variables of §4.4, and
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
	// choices is the accumulated evidence: the most recent explicit
	// presentation selection per variable, across all viewers.
	choices cpnet.Outcome
	// choiceBy remembers which viewer pinned each variable, so a
	// viewer's choices can be retracted when they leave.
	choiceBy map[string]string
	// overlays holds each viewer's private extension network.
	overlays map[string]*cpnet.Overlay
	// env holds per-viewer environment evidence — measured facts about
	// one viewer's situation (e.g. the QoS loop's bandwidth level) that
	// condition only that viewer's view, unlike the shared choices.
	env map[string]cpnet.Outcome

	// gen counts mutations: every method that changes the document, the
	// evidence, the viewer set, an overlay or an environment bumps it.
	// memo holds one solved view per evidence class of the viewers with
	// an empty overlay; memoGen is the last generation one was looked up
	// at. An entry not current at gen is brought up to it on its next
	// lookup (see classLocked).
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

// classView is the solved view of one evidence class: the viewers whose
// overlay is empty and whose environment equals env. Their evidence is
// the same, so is the base completion, and an empty overlay adds nothing
// to it (§4.2: "the base outcome is exactly what every other viewer
// would compute").
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
		overlays: make(map[string]*cpnet.Overlay),
		env:      make(map[string]cpnet.Outcome),
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
	e.schema = nil
	return edit(e.doc)
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
	if _, dup := e.overlays[viewer]; dup {
		return fmt.Errorf("core: viewer %q already joined", viewer)
	}
	e.overlays[viewer] = e.doc.NewOverlay()
	e.gen++
	return nil
}

// Leave retracts the viewer's choices and discards their overlay. It
// returns true if the shared presentation changed (the server should then
// push fresh views to the remaining viewers).
func (e *Engine) Leave(viewer string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.overlays[viewer]; !ok {
		return false, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	delete(e.overlays, viewer)
	delete(e.env, viewer)
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
	out := make([]string, 0, len(e.overlays))
	for v := range e.overlays {
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
	ov, ok := e.overlays[viewer]
	if !ok {
		return fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if value == "" {
		if e.choiceBy[variable] != "" {
			delete(e.choices, variable)
			delete(e.choiceBy, variable)
			e.gen++
		}
		return nil
	}
	// Validate against the shared network or the viewer's own overlay. A
	// private extension variable is pinned in the viewer's own evidence:
	// it is stored in choices, and only its owner's evidence reads it.
	switch {
	case e.doc.Prefs.HasVariable(variable):
		if !e.doc.Prefs.HasValue(variable, value) {
			return fmt.Errorf("core: variable %q has no value %q", variable, value)
		}
	case !ov.Owns(variable):
		return fmt.Errorf("core: unknown variable %q", variable)
	}
	e.choices[variable] = value
	e.choiceBy[variable] = viewer
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
	ov, ok := e.overlays[viewer]
	if !ok {
		return "", fmt.Errorf("core: viewer %q not joined", viewer)
	}
	e.gen++
	if private {
		return e.doc.ApplyOperationPrivate(ov, component, op, activeWhen)
	}
	e.schema = nil
	return e.doc.ApplyOperation(component, op, activeWhen)
}

// ViewFor computes the current optimal view for one viewer: the shared
// completion under all accumulated choices, extended by the viewer's
// private overlay.
func (e *Engine) ViewFor(viewer string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewForLocked(viewer)
}

func (e *Engine) viewForLocked(viewer string) (document.View, error) {
	ov, ok := e.overlays[viewer]
	if !ok {
		return document.View{}, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	return e.viewForViewerLocked(viewer, ov)
}

// viewForViewerLocked returns the viewer's view as maps, solving once
// per evidence class: a viewer with an empty overlay takes the maps
// already built at this generation for their class, if there are any —
// the same View value, which is why a View is read-only. A viewer with a
// private overlay is solved alone.
func (e *Engine) viewForViewerLocked(viewer string, ov *cpnet.Overlay) (document.View, error) {
	if !ov.Empty() {
		return e.solveLocked(viewer, ov)
	}
	c, err := e.classLocked(viewer)
	if err != nil {
		return document.View{}, err
	}
	if c.view.Outcome == nil {
		c.view = c.solved.View()
	}
	return c.view, nil
}

// Solved returns the viewer's solved view: the room's path, which diffs
// and encodes it and never builds its maps. Viewers of one evidence class
// get the same *Solved; a viewer with a private overlay gets their own.
func (e *Engine) Solved(viewer string) (*document.Solved, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ov, ok := e.overlays[viewer]
	if !ok {
		return nil, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if !ov.Empty() {
		schema, err := e.schemaLocked()
		if err != nil {
			return nil, err
		}
		return e.solveWholeLocked(schema, viewer, ov)
	}
	c, err := e.classLocked(viewer)
	if err != nil {
		return nil, err
	}
	return c.solved, nil
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

// classLocked returns the memo entry of the evidence class of a viewer
// with an empty overlay, current at this generation. An entry current at
// an earlier one is brought up to date from its own view when the
// document has not changed since: kept as it is when the class's evidence
// did not change (a join, say, or another class's choice), otherwise
// re-solved by propagation from the variables whose evidence did. After
// an edit it is solved whole. Entries not looked up at the last
// generation are dropped at the first lookup of a new one.
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
	env := e.env[viewer]
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

// evidenceLocked calls pin with each variable the viewer's evidence pins
// and its value: the viewer's measured environment, then the shared
// choices that name a base variable or one of the viewer's own private
// variables (ov nil: base variables only). A room-wide environment pin (a
// choice no viewer owns) yields to the viewer's own measurement of the
// same variable; an explicit viewer choice wins over both. Every solve and
// the prefetch ranking read evidence here, so they cannot disagree.
func (e *Engine) evidenceLocked(viewer string, ov *cpnet.Overlay, pin func(variable, value string)) {
	env := e.env[viewer]
	for variable, value := range env {
		if e.doc.Prefs.HasVariable(variable) {
			pin(variable, value)
		}
	}
	for variable, value := range e.choices {
		if !e.doc.Prefs.HasVariable(variable) && (ov == nil || !ov.Owns(variable)) {
			continue
		}
		if _, measured := env[variable]; measured && e.choiceBy[variable] == "" {
			continue
		}
		pin(variable, value)
	}
}

// pinsLocked writes the evidence of a viewer with an empty overlay into
// an evidence vector under schema, reusing buf when it fits.
func (e *Engine) pinsLocked(schema *document.Schema, viewer string, buf []uint8) ([]uint8, error) {
	net := schema.Network()
	if len(buf) != net.Len() {
		buf = make([]uint8, net.Len())
	}
	for i := range buf {
		buf[i] = cpnet.Unpinned
	}
	var err error
	e.evidenceLocked(viewer, nil, func(variable, value string) {
		if perr := net.Pin(buf, variable, value); perr != nil && err == nil {
			err = fmt.Errorf("document %s: %w", e.doc.ID, perr)
		}
	})
	return buf, err
}

// solveWholeLocked solves the view of a viewer with a private overlay
// afresh under schema, with the overlay's own completion of the viewer's
// evidence.
func (e *Engine) solveWholeLocked(schema *document.Schema, viewer string, ov *cpnet.Overlay) (*document.Solved, error) {
	ev := cpnet.Outcome{}
	e.evidenceLocked(viewer, ov, func(variable, value string) { ev[variable] = value })
	v, err := schema.SolveOverlay(ov, ev)
	if err != nil {
		return nil, fmt.Errorf("document %s: %w", e.doc.ID, err)
	}
	return v, nil
}

// solveLocked solves the viewer's view afresh, as maps, under the
// document compiled anew: the view of a viewer with a private overlay,
// and the reference the memo is held to, which must not trust the
// engine's cached schema.
func (e *Engine) solveLocked(viewer string, ov *cpnet.Overlay) (document.View, error) {
	ev := cpnet.Outcome{}
	e.evidenceLocked(viewer, ov, func(variable, value string) { ev[variable] = value })
	return e.doc.ReconfigPresentationFor(ov, ev)
}

// Views computes the current view of every joined viewer as maps. Viewers
// of one evidence class get the same View value.
func (e *Engine) Views() (map[string]document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]document.View, len(e.overlays))
	for viewer, ov := range e.overlays {
		v, err := e.viewForViewerLocked(viewer, ov)
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
	if _, ok := e.overlays[viewer]; !ok {
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
