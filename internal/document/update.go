package document

import (
	"fmt"
	"strings"

	"mmconf/internal/cpnet"
)

// This file implements the online document updates of §4.2 at the document
// level: adding a component, removing a component, and performing an
// operation on a component. Each update keeps the component hierarchy and
// the CP-network in lockstep.

// AddComponent attaches a new component under the named composite parent
// and registers it in the preference network. netParents names the
// CP-net parents of the new variable (may be empty); defaultOrder is the
// initial context-independent preference ordering over its domain.
func (d *Document) AddComponent(parent string, c *Component, netParents []string, defaultOrder []string) error {
	if c == nil {
		return fmt.Errorf("document %s: nil component", d.ID)
	}
	if c.Name == "" || strings.ContainsRune(c.Name, '/') {
		return fmt.Errorf("document %s: invalid component name %q", d.ID, c.Name)
	}
	if _, err := d.Component(c.Name); err == nil {
		return fmt.Errorf("document %s: component %q already exists", d.ID, c.Name)
	}
	if c.Composite() {
		return fmt.Errorf("document %s: adding composite subtrees online is not supported; add leaves one at a time", d.ID)
	}
	if len(c.Presentations) == 0 {
		return fmt.Errorf("document %s: component %q has no presentations", d.ID, c.Name)
	}
	p, err := d.Component(parent)
	if err != nil {
		return err
	}
	if !p.Composite() {
		return fmt.Errorf("document %s: parent %q is a primitive component", d.ID, parent)
	}
	if err := d.Prefs.AddComponentVariable(c.Name, c.Domain(), netParents, defaultOrder); err != nil {
		return fmt.Errorf("document %s: %w", d.ID, err)
	}
	p.Children = append(p.Children, c)
	return nil
}

// RemoveComponent detaches the named primitive component from the
// hierarchy and removes its variable from the preference network using the
// projection policy of cpnet.RemoveComponentVariable. The root cannot be
// removed. Removing a composite removes its whole subtree, leaf-first.
func (d *Document) RemoveComponent(name string) error {
	if name == d.Root.Name {
		return fmt.Errorf("document %s: cannot remove the root component", d.ID)
	}
	c, err := d.Component(name)
	if err != nil {
		return err
	}
	// Remove children bottom-up first so the network never holds a
	// variable for a detached component.
	for len(c.Children) > 0 {
		if err := d.RemoveComponent(c.Children[0].Name); err != nil {
			return err
		}
	}
	// Drop any derived operation variables of this component.
	prefix := name + "/"
	for _, v := range d.Prefs.Variables() {
		if strings.HasPrefix(v.Name, prefix) {
			if err := d.Prefs.RemoveComponentVariable(v.Name); err != nil {
				return fmt.Errorf("document %s: removing derived %q: %w", d.ID, v.Name, err)
			}
		}
	}
	if err := d.Prefs.RemoveComponentVariable(name); err != nil {
		return fmt.Errorf("document %s: %w", d.ID, err)
	}
	p := d.parentOf(name)
	for i, ch := range p.Children {
		if ch.Name == name {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	return nil
}

// ApplyOperation records that a viewer performed media operation op (e.g.
// "segmentation", "zoom") on the named component while it was presented
// with value activeWhen, updating the shared network per §4.2. It returns
// the derived variable's name. If the viewer deems the result important
// only to herself, use ApplyOperationPrivate with her overlay instead.
func (d *Document) ApplyOperation(component, op, activeWhen string) (string, error) {
	if _, err := d.Component(component); err != nil {
		return "", err
	}
	name, err := d.Prefs.AddOperationVariable(component, op, activeWhen)
	if err != nil {
		return "", fmt.Errorf("document %s: %w", d.ID, err)
	}
	return name, nil
}

// ApplyOperationPrivate records the operation only in the given viewer's
// overlay; the shared network is not modified.
func (d *Document) ApplyOperationPrivate(ov *cpnet.Overlay, component, op, activeWhen string) (string, error) {
	if ov.Base() != d.Prefs {
		return "", fmt.Errorf("document %s: overlay does not extend this document's network", d.ID)
	}
	if _, err := d.Component(component); err != nil {
		// The component may itself be a private derived variable.
		if !strings.ContainsRune(component, '/') {
			return "", err
		}
	}
	name, err := ov.AddOperationVariable(component, op, activeWhen)
	if err != nil {
		return "", fmt.Errorf("document %s: %w", d.ID, err)
	}
	return name, nil
}

// NewOverlay returns a fresh per-viewer overlay of the document's network.
func (d *Document) NewOverlay() *cpnet.Overlay { return cpnet.NewOverlay(d.Prefs) }

// ReconfigPresentationFor computes the optimal view for one viewer,
// honoring both the shared network and the viewer's private overlay.
func (d *Document) ReconfigPresentationFor(ov *cpnet.Overlay, choices cpnet.Outcome) (View, error) {
	if ov == nil {
		return d.ReconfigPresentation(choices)
	}
	if ov.Base() != d.Prefs {
		return View{}, fmt.Errorf("document %s: overlay does not extend this document's network", d.ID)
	}
	s, err := d.Schema()
	if err != nil {
		return View{}, err
	}
	v, err := s.SolveOverlay(ov, choices)
	if err != nil {
		return View{}, fmt.Errorf("document %s: %w", d.ID, err)
	}
	return v.View(), nil
}
