package core

import (
	"fmt"
	"sort"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
)

// This file implements the first §4.4 strategy for handling communication
// bandwidth and client buffer limits: "add corresponding 'tuning'
// variables into the preference model of the document presentation, and
// to condition on them the preferential ordering of the presentation
// alternatives for various bandwidth/buffer consuming components. Such
// model extension can be done automatically, according to some predefined
// ordering templates."

// BandwidthVariable is the reserved tuning-variable name. It contains '/'
// so document.SetNetwork treats it as a derived (non-component) variable.
const BandwidthVariable = "net/bandwidth"

// Bandwidth levels, ordered worst to best.
const (
	BandwidthLow    = "low"
	BandwidthMedium = "medium"
	BandwidthHigh   = "high"
)

// BandwidthTemplate gives, for one component, the preference order over
// its presentations at each bandwidth level — the "predefined ordering
// template". Typically Low prefers icons/low-resolution forms and High
// prefers full fidelity.
type BandwidthTemplate struct {
	Low, Medium, High []string
	// MediumLimit is the payload size above which the medium level
	// demotes a presentation when re-ranking the author's conditional
	// rows (0 selects DefaultMediumLimit).
	MediumLimit int64
}

// DefaultMediumLimit is the payload size above which the medium template
// demotes a presentation: mid-grade links keep full fidelity for objects
// up to this size and degrade only the heavyweights.
const DefaultMediumLimit int64 = 256 << 10

// AutoBandwidthTemplates derives an ordering template for every leaf
// component that has at least two visible presentation alternatives —
// the "model extension can be done automatically, according to some
// predefined ordering templates" of §4.4. The generated orders encode
// the QoS loop's degradation invariant, resolution before components:
// the hidden form ranks last at every bandwidth level, so a degrading
// link changes which resolution is preferred but never prefers dropping
// a component over showing some visible form of it.
//
//   - high: the author's order (full fidelity first).
//   - medium: the author's order with presentations larger than
//     mediumLimit demoted behind the affordable ones.
//   - low: visible forms cheapest-first by payload size.
//
// mediumLimit <= 0 selects DefaultMediumLimit.
func AutoBandwidthTemplates(doc *document.Document, mediumLimit int64) map[string]BandwidthTemplate {
	if mediumLimit <= 0 {
		mediumLimit = DefaultMediumLimit
	}
	templates := make(map[string]BandwidthTemplate)
	for _, c := range doc.Components() {
		if c.Composite() {
			continue
		}
		visible := make([]document.Presentation, 0, len(c.Presentations))
		hidden := make([]string, 0, 1)
		for _, p := range c.Presentations {
			if p.Name == document.HiddenValue {
				hidden = append(hidden, p.Name)
				continue
			}
			visible = append(visible, p)
		}
		if len(visible) < 2 {
			continue // nothing to degrade between
		}
		order := func(ps []document.Presentation) []string {
			out := make([]string, 0, len(ps)+len(hidden))
			for _, p := range ps {
				out = append(out, p.Name)
			}
			return append(out, hidden...)
		}
		high := order(visible)
		// Medium: stable partition — affordable forms keep the author's
		// order, oversized ones follow, hidden stays last.
		med := make([]document.Presentation, 0, len(visible))
		var big []document.Presentation
		for _, p := range visible {
			if p.Bytes <= mediumLimit {
				med = append(med, p)
			} else {
				big = append(big, p)
			}
		}
		medium := order(append(med, big...))
		// Low: cheapest visible first (stable on author order for ties).
		low := make([]document.Presentation, len(visible))
		copy(low, visible)
		sort.SliceStable(low, func(i, j int) bool { return low[i].Bytes < low[j].Bytes })
		templates[c.Name] = BandwidthTemplate{Low: order(low), Medium: medium, High: high, MediumLimit: mediumLimit}
	}
	return templates
}

// AddBandwidthTuning extends the document's network with the bandwidth
// tuning variable and conditions each templated component on it — the
// automatic model extension of §4.4. A parentless component takes the
// template's three orders directly. A component the author already
// conditioned (on other components) keeps that conditioning: the tuning
// variable is appended to its parent set and each author row is
// re-ranked per level by the template's size policy — high keeps the
// author's row, medium demotes payloads above the template's
// MediumLimit, low sorts the visible forms cheapest-first. The hidden
// form never moves within an author row: where the author decided a
// context warrants hiding, a fast link must not resurrect the
// component, and where they ranked hidden last, a slow link degrades
// resolution but still shows something.
func AddBandwidthTuning(doc *document.Document, templates map[string]BandwidthTemplate) error {
	if len(templates) == 0 {
		return fmt.Errorf("core: no tuning templates")
	}
	n := doc.Prefs
	if n.HasVariable(BandwidthVariable) {
		return fmt.Errorf("core: document %s already has bandwidth tuning", doc.ID)
	}
	// Validate everything before mutating. Components are looked up in
	// one pass over the tree: a lookup per template would walk it once
	// for each of a wide document's components.
	byName := make(map[string]*document.Component)
	for _, c := range doc.Components() {
		byName[c.Name] = c
	}
	for comp, tpl := range templates {
		c, ok := byName[comp]
		if !ok {
			return fmt.Errorf("document %s: no component %q", doc.ID, comp)
		}
		if c.Composite() {
			return fmt.Errorf("core: cannot condition composite %q on bandwidth", comp)
		}
		for _, order := range [][]string{tpl.Low, tpl.Medium, tpl.High} {
			if len(order) != len(c.Domain()) {
				return fmt.Errorf("core: template for %q lists %d values, domain has %d",
					comp, len(order), len(c.Domain()))
			}
		}
	}
	if err := n.AddVariable(BandwidthVariable, []string{BandwidthLow, BandwidthMedium, BandwidthHigh}); err != nil {
		return err
	}
	// Absent measurement, assume the best: high ≻ medium ≻ low.
	if err := n.SetUnconditional(BandwidthVariable, []string{BandwidthHigh, BandwidthMedium, BandwidthLow}); err != nil {
		return err
	}
	for comp, tpl := range templates {
		parents, err := n.Parents(comp)
		if err != nil {
			return err
		}
		if len(parents) == 0 {
			if err := n.SetParents(comp, []string{BandwidthVariable}); err != nil {
				return fmt.Errorf("core: conditioning %q: %w", comp, err)
			}
			for level, order := range map[string][]string{
				BandwidthLow:    tpl.Low,
				BandwidthMedium: tpl.Medium,
				BandwidthHigh:   tpl.High,
			} {
				if err := n.SetPreference(comp, cpnet.Outcome{BandwidthVariable: level}, order); err != nil {
					return fmt.Errorf("core: template row for %q at %s: %w", comp, level, err)
				}
			}
			continue
		}
		// Author-conditioned component: capture every existing row before
		// SetParents clears the CPT, then re-rank each per level.
		c := byName[comp]
		sizes := make(map[string]int64, len(c.Presentations))
		for _, p := range c.Presentations {
			sizes[p.Name] = p.Bytes
		}
		limit := tpl.MediumLimit
		if limit <= 0 {
			limit = DefaultMediumLimit
		}
		type authorRow struct {
			ctx   cpnet.Outcome
			order []string
		}
		var rows []authorRow
		var rowErr error
		if err := n.ForEachContext(comp, func(ctx cpnet.Outcome) bool {
			order, err := n.Preference(comp, ctx)
			if err != nil {
				rowErr = err
				return false
			}
			rows = append(rows, authorRow{ctx: ctx.Clone(), order: order})
			return true
		}); err != nil {
			return err
		}
		if rowErr != nil {
			return fmt.Errorf("core: conditioning %q: %w", comp, rowErr)
		}
		if err := n.SetParents(comp, append(parents, BandwidthVariable)); err != nil {
			return fmt.Errorf("core: conditioning %q: %w", comp, err)
		}
		for _, row := range rows {
			for _, level := range []string{BandwidthLow, BandwidthMedium, BandwidthHigh} {
				ctx := row.ctx.Clone()
				ctx[BandwidthVariable] = level
				if err := n.SetPreference(comp, ctx, rerankRow(level, row.order, sizes, limit)); err != nil {
					return fmt.Errorf("core: template row for %q at %s: %w", comp, level, err)
				}
			}
		}
	}
	return n.Validate()
}

// rerankRow applies a bandwidth level's size policy to one author
// preference row: hidden entries keep their author-chosen positions;
// the visible entries are permuted among the remaining slots — medium
// demotes payloads above limit (stable), low sorts cheapest-first
// (stable), high returns the row unchanged.
func rerankRow(level string, order []string, sizes map[string]int64, limit int64) []string {
	if level == BandwidthHigh {
		return order
	}
	visible := make([]string, 0, len(order))
	slots := make([]int, 0, len(order))
	for i, v := range order {
		if v == document.HiddenValue {
			continue
		}
		visible = append(visible, v)
		slots = append(slots, i)
	}
	if level == BandwidthMedium {
		part := make([]string, 0, len(visible))
		var big []string
		for _, v := range visible {
			if sizes[v] <= limit {
				part = append(part, v)
			} else {
				big = append(big, v)
			}
		}
		visible = append(part, big...)
	} else {
		sort.SliceStable(visible, func(i, j int) bool { return sizes[visible[i]] < sizes[visible[j]] })
	}
	out := make([]string, len(order))
	copy(out, order)
	for i, slot := range slots {
		out[slot] = visible[i]
	}
	return out
}

// SetEnvironment pins a measured environment variable (e.g. the bandwidth
// tuning variable) as evidence that no viewer owns: it survives viewers
// leaving and can only be changed by another SetEnvironment call.
func (e *Engine) SetEnvironment(variable, value string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.doc.Prefs.HasVariable(variable) {
		return fmt.Errorf("core: unknown environment variable %q", variable)
	}
	if value == "" {
		delete(e.choices, variable)
		delete(e.choiceBy, variable)
		e.gen++
		return nil
	}
	if !e.doc.Prefs.HasValue(variable, value) {
		return fmt.Errorf("core: variable %q has no value %q", variable, value)
	}
	e.choices[variable] = value
	e.choiceBy[variable] = "" // owned by the environment, not a viewer
	e.gen++
	return nil
}

// SetViewerEnvironment pins a measured environment variable for one
// viewer only — the QoS loop's per-client tuning hook: each client's
// estimated bandwidth level conditions that client's view without
// degrading anyone else's. An empty value clears the pin. A viewer's
// explicit choice on the same variable still wins; a global
// SetEnvironment pin does not (the per-viewer measurement is more
// specific). It returns whether the viewer's effective evidence changed.
func (e *Engine) SetViewerEnvironment(viewer, variable, value string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.overlays[viewer]; !ok {
		return false, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if !e.doc.Prefs.HasVariable(variable) {
		return false, fmt.Errorf("core: unknown environment variable %q", variable)
	}
	if value == "" {
		if _, ok := e.env[viewer][variable]; !ok {
			return false, nil
		}
		delete(e.env[viewer], variable)
		e.gen++
		return true, nil
	}
	if !e.doc.Prefs.HasValue(variable, value) {
		return false, fmt.Errorf("core: variable %q has no value %q", variable, value)
	}
	if e.env[viewer] == nil {
		e.env[viewer] = cpnet.Outcome{}
	}
	if e.env[viewer][variable] == value {
		return false, nil
	}
	e.env[viewer][variable] = value
	e.gen++
	return true, nil
}

// ViewerEnvironment returns a copy of one viewer's environment evidence.
func (e *Engine) ViewerEnvironment(viewer string) cpnet.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := cpnet.Outcome{}
	for v, val := range e.env[viewer] {
		out[v] = val
	}
	return out
}
