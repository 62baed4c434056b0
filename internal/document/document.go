// Package document implements the multimedia document model of the paper
// (§4 and §5.1, Fig. 6): a hierarchical, tree-like structure of multimedia
// components, each with a domain of optional presentations, bound to a
// CP-network that encodes the author's preferences over the document's
// configuration space.
//
// A MultimediaDocument in the paper consists of the actual hierarchically
// structured data (MultimediaComponent) and the preference specification
// (CPNetwork); components are either composite (internal nodes, restricted
// to the binary shown/hidden domain) or primitive (leaves, with arbitrary
// presentation domains such as flat image / segmented image / icon /
// hidden). Here Document, Component and cpnet.Network play those roles.
package document

import (
	"bytes"
	"fmt"
	"strings"

	"mmconf/internal/cpnet"
	"mmconf/internal/wire"
)

// MediaKind classifies how a presentation alternative renders. These are
// the ground specifications of the paper's abstract MMPresentation class
// (Text, JPGImage, SegmentedJPGImage, ...), extended with the resolution
// variants the image-compression module introduces.
type MediaKind int

// Presentation media kinds.
const (
	KindHidden          MediaKind = iota // component omitted from the view
	KindIcon                             // shrunk to a small icon
	KindText                             // textual rendering
	KindImage                            // full flat raster image
	KindSegmentedImage                   // image with segmentation overlay
	KindImageLowRes                      // base compression layer only
	KindImageMedRes                      // base + first residual layer
	KindImageHighRes                     // all layers
	KindAudio                            // playable audio fragment
	KindAudioTranscript                  // audio rendered as transcript text
	KindTable                            // structured test results
	KindComposite                        // internal grouping node
)

var kindNames = map[MediaKind]string{
	KindHidden:          "hidden",
	KindIcon:            "icon",
	KindText:            "text",
	KindImage:           "image",
	KindSegmentedImage:  "segmented-image",
	KindImageLowRes:     "image-lowres",
	KindImageMedRes:     "image-medres",
	KindImageHighRes:    "image-highres",
	KindAudio:           "audio",
	KindAudioTranscript: "audio-transcript",
	KindTable:           "table",
	KindComposite:       "composite",
}

// String returns the kind's stable lowercase name.
func (k MediaKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("MediaKind(%d)", int(k))
}

// Presentation is one optional way of presenting a component — one value
// of the component's CP-net variable domain.
type Presentation struct {
	// Name is the domain value name, unique within the component
	// (e.g. "full", "segmented", "icon", "hidden").
	Name string
	// Kind tells the client how to render this alternative.
	Kind MediaKind
	// ObjectID references the multimedia object in the database server
	// holding this alternative's payload; 0 means no stored payload
	// (hidden/icon forms, or inline content).
	ObjectID uint64
	// Inline carries small payloads (captions, test-result rows) directly.
	Inline []byte
	// Bytes estimates the transfer size of the payload. The pre-fetching
	// and bandwidth-tuning machinery of §4.4 rank alternatives by it.
	Bytes int64
}

// Composite-component domain values. The paper restricts composite
// components to binary domains: presented or hidden.
const (
	VisShown  = "shown"
	VisHidden = "hidden"
)

// Component is a node in the document's hierarchical structure.
type Component struct {
	// Name uniquely identifies the component within its document. Names
	// must not contain '/', which is reserved for derived operation
	// variables (cpnet.OperationVariableName).
	Name string
	// Label is the human-readable title shown in the client tree view.
	Label string
	// Presentations is the component's domain. Composite components
	// ignore it (their domain is always {shown, hidden}).
	Presentations []Presentation
	// Children are the sub-components; non-empty means composite.
	Children []*Component
}

// Composite reports whether the component is an internal node.
func (c *Component) Composite() bool { return len(c.Children) > 0 }

// Domain returns the component's CP-net value domain.
func (c *Component) Domain() []string {
	if c.Composite() {
		return []string{VisShown, VisHidden}
	}
	names := make([]string, len(c.Presentations))
	for i, p := range c.Presentations {
		names[i] = p.Name
	}
	return names
}

// Presentation returns the presentation alternative with the given name.
func (c *Component) Presentation(name string) (Presentation, error) {
	for _, p := range c.Presentations {
		if p.Name == name {
			return p, nil
		}
	}
	return Presentation{}, fmt.Errorf("document: component %q has no presentation %q", c.Name, name)
}

// Document is a multimedia document: the component hierarchy plus the
// author's preference network over its configuration space.
type Document struct {
	// ID is the document's database identity.
	ID string
	// Title is the human-readable document title.
	Title string
	// Root is the top of the component hierarchy.
	Root *Component
	// Prefs is the author's CP-network. Its variables are exactly the
	// component names (plus any derived operation variables, whose names
	// contain '/'); each variable's domain equals the component's Domain.
	Prefs *cpnet.Network
}

// New assembles a document and initializes its preference network with one
// variable per component (no parents; a neutral default ordering that
// prefers the first declared presentation). Authors then refine the
// network through Prefs — SetParents / SetPreference — or load a complete
// network with SetNetwork.
func New(id, title string, root *Component) (*Document, error) {
	if id == "" {
		return nil, fmt.Errorf("document: empty id")
	}
	if root == nil {
		return nil, fmt.Errorf("document: nil root")
	}
	d := &Document{ID: id, Title: title, Root: root, Prefs: cpnet.New()}
	seen := make(map[string]bool)
	var walk func(c *Component) error
	walk = func(c *Component) error {
		if c.Name == "" {
			return fmt.Errorf("document: component with empty name")
		}
		if strings.ContainsRune(c.Name, '/') {
			return fmt.Errorf("document: component name %q contains reserved '/'", c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("document: duplicate component name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Composite() && len(c.Presentations) > 0 {
			return fmt.Errorf("document: composite component %q declares presentations", c.Name)
		}
		if !c.Composite() && len(c.Presentations) == 0 {
			return fmt.Errorf("document: primitive component %q has no presentations", c.Name)
		}
		pseen := make(map[string]bool)
		for _, p := range c.Presentations {
			if p.Name == "" {
				return fmt.Errorf("document: component %q has presentation with empty name", c.Name)
			}
			if pseen[p.Name] {
				return fmt.Errorf("document: component %q repeats presentation %q", c.Name, p.Name)
			}
			pseen[p.Name] = true
		}
		if err := d.Prefs.AddVariable(c.Name, c.Domain()); err != nil {
			return err
		}
		if err := d.Prefs.SetUnconditional(c.Name, c.Domain()); err != nil {
			return err
		}
		for _, ch := range c.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return d, nil
}

// SetNetwork replaces the document's preference network after checking
// that it matches the component structure: one variable per component with
// exactly the component's domain; extra variables are allowed only if they
// are derived operation variables (name contains '/').
func (d *Document) SetNetwork(n *cpnet.Network) error {
	if err := n.Validate(); err != nil {
		return fmt.Errorf("document %s: %w", d.ID, err)
	}
	comps := d.Components()
	for _, c := range comps {
		dom, err := n.Domain(c.Name)
		if err != nil {
			return fmt.Errorf("document %s: network lacks component %q", d.ID, c.Name)
		}
		want := c.Domain()
		if !equalStrings(dom, want) {
			return fmt.Errorf("document %s: component %q network domain %v != %v", d.ID, c.Name, dom, want)
		}
	}
	byName := make(map[string]bool, len(comps))
	for _, c := range comps {
		byName[c.Name] = true
	}
	for _, v := range n.Variables() {
		if !byName[v.Name] && !strings.ContainsRune(v.Name, '/') {
			return fmt.Errorf("document %s: network variable %q matches no component", d.ID, v.Name)
		}
	}
	d.Prefs = n
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Components returns every component in pre-order.
func (d *Document) Components() []*Component {
	var out []*Component
	var walk func(c *Component)
	walk = func(c *Component) {
		out = append(out, c)
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	walk(d.Root)
	return out
}

// Component finds a component by name.
func (d *Document) Component(name string) (*Component, error) {
	for _, c := range d.Components() {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("document %s: no component %q", d.ID, name)
}

// parentOf returns the parent component of name, or nil for the root.
func (d *Document) parentOf(name string) *Component {
	var found *Component
	var walk func(c *Component)
	walk = func(c *Component) {
		for _, ch := range c.Children {
			if ch.Name == name {
				found = c
				return
			}
			walk(ch)
		}
	}
	walk(d.Root)
	return found
}

// View is a concrete presentation configuration of a document: the chosen
// presentation value for every network variable, plus the effective
// visibility once composite hiding cascades down the hierarchy.
//
// A View's maps are read-only once it is returned: core.Engine hands the
// same View to every viewer whose evidence is the same, and the room
// fans it out to their event queues, so several goroutines read one map.
// No code outside tests writes one; copy (Outcome.Clone) before changing.
type View struct {
	// Outcome is the CP-net outcome the view realizes.
	Outcome cpnet.Outcome
	// Visible maps each component name to whether it is effectively
	// rendered: a component is invisible if its own value is "hidden" or
	// any ancestor composite is hidden.
	Visible map[string]bool
}

// HiddenValue is the presentation value name that, by convention, means
// the component is omitted. Primitive components that can be hidden must
// name the alternative exactly "hidden".
const HiddenValue = "hidden"

// DefaultPresentation returns the optimal view given no viewer choices —
// the paper's defaultPresentation() method, delegated to the CP-network.
func (d *Document) DefaultPresentation() (View, error) {
	return d.ReconfigPresentation(nil)
}

// ReconfigPresentation returns the optimal view consistent with the
// viewers' recent choices — the paper's reconfigPresentation(eventList).
// choices maps variable names (components or derived operation variables)
// to the presentation values the viewers explicitly selected.
func (d *Document) ReconfigPresentation(choices cpnet.Outcome) (View, error) {
	s, err := d.Schema()
	if err != nil {
		return View{}, err
	}
	pins, err := s.net.Evidence(choices, nil)
	if err != nil {
		return View{}, fmt.Errorf("document %s: %w", d.ID, err)
	}
	v, err := s.Solve(pins)
	if err != nil {
		return View{}, fmt.Errorf("document %s: %w", d.ID, err)
	}
	return v.View(), nil
}

// TransferBytes sums the estimated payload size of a view: for each
// effectively visible primitive component, the Bytes of its selected
// presentation. This is the quantity the §4.4 bandwidth machinery
// constrains.
func (d *Document) TransferBytes(v View) int64 {
	var total int64
	for _, c := range d.Components() {
		if c.Composite() || !v.Visible[c.Name] {
			continue
		}
		if p, err := c.Presentation(v.Outcome[c.Name]); err == nil {
			total += p.Bytes
		}
	}
	return total
}

// AppendBody writes the document's binary form — what the store persists
// and the interaction server ships at every join: ID, title, the
// component tree in pre-order, then the preference network.
func (d *Document) AppendBody(e *wire.BodyEnc) {
	e.String(d.ID)
	e.String(d.Title)
	appendComponent(e, d.Root)
	d.Prefs.AppendBody(e)
}

func appendComponent(e *wire.BodyEnc, c *Component) {
	e.String(c.Name)
	e.String(c.Label)
	e.Uvarint(uint64(len(c.Presentations)))
	for _, p := range c.Presentations {
		e.String(p.Name)
		e.Varint(int64(p.Kind))
		e.Uvarint(p.ObjectID)
		e.Bytes(p.Inline)
		e.Varint(p.Bytes)
	}
	e.Uvarint(uint64(len(c.Children)))
	for _, ch := range c.Children {
		appendComponent(e, ch)
	}
}

// maxDepth bounds the component tree a decoder reads, far past any
// authored document: the decoder recurses once per level, and a stack
// overflow kills the process where no recover can catch it.
const maxDepth = 256

func decodeComponent(d *wire.Dec, depth int) (*Component, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("document: component tree deeper than %d", maxDepth)
	}
	c := &Component{Name: d.String(), Label: d.String()}
	if n := d.Count(); n > 0 {
		c.Presentations = make([]Presentation, 0, min(n, 64))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			c.Presentations = append(c.Presentations, Presentation{
				Name:     d.String(),
				Kind:     MediaKind(d.Varint()),
				ObjectID: d.Uvarint(),
				Inline:   bytes.Clone(d.Bytes()),
				Bytes:    d.Varint(),
			})
		}
	}
	if n := d.Count(); n > 0 {
		c.Children = make([]*Component, 0, min(n, 64))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			ch, err := decodeComponent(d, depth+1)
			if err != nil {
				return nil, err
			}
			c.Children = append(c.Children, ch)
		}
	}
	return c, d.Err()
}

// MarshalBinary encodes the document (structure + preference network).
func (d *Document) MarshalBinary() ([]byte, error) {
	return wire.MarshalBody(d), nil
}

// Unmarshal decodes a document previously encoded with MarshalBinary and
// holds it to New's structural checks and SetNetwork's agreement with
// the network.
func Unmarshal(data []byte) (*Document, error) {
	d := wire.NewDec(data)
	id, title := d.String(), d.String()
	root, err := decodeComponent(d, 1)
	if err != nil {
		return nil, fmt.Errorf("document: decode: %w", err)
	}
	prefs := cpnet.New()
	if err := prefs.DecodeBody(d); err != nil {
		return nil, fmt.Errorf("document: decode: %w", err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("document: decode: %d trailing bytes", d.Len())
	}
	doc, err := New(id, title, root)
	if err != nil {
		return nil, err
	}
	if err := doc.SetNetwork(prefs); err != nil {
		return nil, err
	}
	return doc, nil
}
