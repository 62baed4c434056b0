package document

import "sort"

// VisibleComponents lists the names of effectively visible components of a
// view, sorted for deterministic output.
func (v View) VisibleComponents() []string {
	var names []string
	for n, vis := range v.Visible {
		if vis {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
