// Package experiments regenerates every figure of the paper's system
// description as a measurable experiment (the paper, a prototype
// description, publishes screenshots; we publish the numbers behind the
// behaviour each screenshot demonstrates). DESIGN.md §4 maps experiment
// ids E1–E9 to paper figures; cmd/mmbench prints every table (-only En
// for one), and EXPERIMENTS.md records representative output. Performance
// is measured and gated by benchmark/, not here.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/workload"
)

// Table is one experiment's result: a title, column headers, and rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// timeIt runs fn n times and returns the mean duration; the first error
// fn returns ends the loop and is the experiment's.
func timeIt(n int, fn func() error) (time.Duration, error) {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// fmtDur renders a duration compactly with µs precision.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// E2OptimalOutcome reproduces Fig. 2: it rebuilds the paper's example
// CP-network, verifies its unique optimum and the conditional flips, and
// scales the optimal-sweep time against network size, with a brute-force
// enumeration baseline where the configuration space is small enough.
func E2OptimalOutcome() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "CP-net optimal configuration (Fig. 2)",
		Columns: []string{"variables", "outcomes", "sweep", "brute-force", "speedup"},
	}
	// The exact Fig. 2 network first.
	fig2, err := Fig2Network()
	if err != nil {
		return nil, err
	}
	opt, err := fig2.OptimalOutcome()
	if err != nil {
		return nil, err
	}
	want := cpnet.Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c24", "c5": "c25"}
	if opt.String() != want.String() {
		return nil, fmt.Errorf("experiments: Fig. 2 optimum = %v, want %v", opt, want)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Fig. 2 network verified: optimum is %v", opt))

	for _, n := range []int{5, 10, 20, 50, 100, 200} {
		doc, err := wideDoc(n)
		if err != nil {
			return nil, err
		}
		net := doc.Prefs
		sweep, err := timeIt(200, func() error {
			_, err := net.OptimalOutcome()
			return err
		})
		if err != nil {
			return nil, err
		}
		bruteCell, speedCell := "-", "-"
		if n <= 10 {
			brute, err := timeIt(3, func() error {
				_, err := bruteForceOptimum(net)
				return err
			})
			if err != nil {
				return nil, err
			}
			bruteCell = fmtDur(brute)
			speedCell = fmt.Sprintf("%.0fx", float64(brute)/float64(sweep))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(net.Len()),
			fmt.Sprint(net.OutcomeCount()),
			fmtDur(sweep),
			bruteCell,
			speedCell,
		})
	}
	return t, nil
}

// Fig2Network builds the exact network of Fig. 2 of the paper.
func Fig2Network() (*cpnet.Network, error) {
	n := cpnet.New()
	for _, v := range []string{"c1", "c2", "c3", "c4", "c5"} {
		suffix := v[1:]
		if err := n.AddVariable(v, []string{"c1" + suffix, "c2" + suffix}); err != nil {
			return nil, err
		}
	}
	steps := []error{
		n.SetParents("c3", []string{"c1", "c2"}),
		n.SetParents("c4", []string{"c3"}),
		n.SetParents("c5", []string{"c3"}),
		n.SetUnconditional("c1", []string{"c11", "c21"}),
		n.SetUnconditional("c2", []string{"c22", "c12"}),
		n.SetPreference("c3", cpnet.Outcome{"c1": "c11", "c2": "c12"}, []string{"c13", "c23"}),
		n.SetPreference("c3", cpnet.Outcome{"c1": "c21", "c2": "c22"}, []string{"c13", "c23"}),
		n.SetPreference("c3", cpnet.Outcome{"c1": "c11", "c2": "c22"}, []string{"c23", "c13"}),
		n.SetPreference("c3", cpnet.Outcome{"c1": "c21", "c2": "c12"}, []string{"c23", "c13"}),
		n.SetPreference("c4", cpnet.Outcome{"c3": "c13"}, []string{"c14", "c24"}),
		n.SetPreference("c4", cpnet.Outcome{"c3": "c23"}, []string{"c24", "c14"}),
		n.SetPreference("c5", cpnet.Outcome{"c3": "c13"}, []string{"c15", "c25"}),
		n.SetPreference("c5", cpnet.Outcome{"c3": "c23"}, []string{"c25", "c15"}),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// bruteForceOptimum finds the outcome no other outcome dominates by
// enumerating the configuration space and counting improving flips — the
// E2/E3 baseline. It relies on the sweep only for verification in tests.
func bruteForceOptimum(n *cpnet.Network) (cpnet.Outcome, error) {
	var best cpnet.Outcome
	var bestErr error
	found := false
	n.ForEachOutcome(func(o cpnet.Outcome) bool {
		ok, err := hasNoImprovingFlip(n, o)
		if err != nil {
			bestErr = err
			return false
		}
		if ok {
			best = o.Clone()
			found = true
			return false // acyclic CP-nets have a unique optimum
		}
		return true
	})
	if bestErr != nil {
		return nil, bestErr
	}
	if !found {
		return nil, fmt.Errorf("experiments: no undominated outcome found")
	}
	return best, nil
}

// hasNoImprovingFlip reports local optimality of o.
func hasNoImprovingFlip(n *cpnet.Network, o cpnet.Outcome) (bool, error) {
	// An outcome is the optimum iff pinning every variable except one and
	// completing never improves that variable's value.
	for _, v := range n.Variables() {
		ev := o.Clone()
		delete(ev, v.Name)
		comp, err := n.OptimalCompletion(ev)
		if err != nil {
			return false, err
		}
		if comp[v.Name] != o[v.Name] {
			return false, nil
		}
	}
	return true, nil
}

// E3Reconfig reproduces the Fig. 5 behaviour quantitatively: the latency
// of reconfigPresentation after a viewer choice, as a function of
// document width, against brute-force enumeration.
func E3Reconfig() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Dynamic reconfiguration latency (Fig. 5 / use case 4b)",
		Columns: []string{"components", "choices", "reconfig", "brute-force", "speedup"},
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{5, 10, 20, 50, 100} {
		doc, err := workload.WideRecord(fmt.Sprintf("e3-%d", n), n, int64(n))
		if err != nil {
			return nil, err
		}
		// Pin a random third of the components.
		choices := cpnet.Outcome{}
		for _, c := range doc.Components() {
			if c.Composite() || rng.Intn(3) != 0 {
				continue
			}
			dom := c.Domain()
			choices[c.Name] = dom[rng.Intn(len(dom))]
		}
		sweep, err := timeIt(100, func() error {
			_, err := doc.ReconfigPresentation(choices)
			return err
		})
		if err != nil {
			return nil, err
		}
		bruteCell, speedCell := "-", "-"
		if n <= 10 {
			brute, err := timeIt(3, func() error {
				_, err := bruteForceCompletion(doc.Prefs, choices)
				return err
			})
			if err != nil {
				return nil, err
			}
			bruteCell = fmtDur(brute)
			speedCell = fmt.Sprintf("%.0fx", float64(brute)/float64(sweep))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(choices)), fmtDur(sweep), bruteCell, speedCell,
		})
	}
	t.Notes = append(t.Notes,
		"reconfig = topological sweep (OptimalCompletion); brute-force enumerates the configuration space")
	return t, nil
}

// bruteForceCompletion enumerates completions of the evidence and returns
// the locally optimal one.
func bruteForceCompletion(n *cpnet.Network, ev cpnet.Outcome) (cpnet.Outcome, error) {
	var best cpnet.Outcome
	var outerErr error
	n.ForEachOutcome(func(o cpnet.Outcome) bool {
		for k, v := range ev {
			if o[k] != v {
				return true
			}
		}
		ok := true
		for _, vr := range n.Variables() {
			if _, pinned := ev[vr.Name]; pinned {
				continue
			}
			e2 := o.Clone()
			delete(e2, vr.Name)
			comp, err := n.OptimalCompletion(e2)
			if err != nil {
				outerErr = err
				return false
			}
			if comp[vr.Name] != o[vr.Name] {
				ok = false
				break
			}
		}
		if ok {
			best = o.Clone()
			return false
		}
		return true
	})
	if outerErr != nil {
		return nil, outerErr
	}
	if best == nil {
		return nil, fmt.Errorf("experiments: no completion found")
	}
	return best, nil
}

// E9Update measures the online CP-net update operations of §4.2: adding a
// component, deriving an operation variable, removing a component, and
// building per-viewer overlays, across network sizes.
func E9Update() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Online document update cost (§4.2)",
		Columns: []string{"components", "add-component", "add-operation", "remove-component", "overlay-op", "overlay-solve"},
	}
	for _, n := range []int{10, 50, 100, 200} {
		// Each mutating op consumes one document, so it is timed over
		// fresh ones built outside the timed section.
		const reps = 30
		perFreshDoc := func(op func(*document.Document) error) (time.Duration, error) {
			docs := make([]*document.Document, reps)
			for i := range docs {
				doc, err := wideDoc(n)
				if err != nil {
					return 0, err
				}
				docs[i] = doc
			}
			i := 0
			return timeIt(reps, func() error {
				doc := docs[i]
				i++
				return op(doc)
			})
		}
		addComp, err := perFreshDoc(func(doc *document.Document) error {
			return doc.AddComponent("record", &document.Component{
				Name: "extra",
				Presentations: []document.Presentation{
					{Name: "full", Kind: document.KindImage},
					{Name: "hidden", Kind: document.KindHidden},
				},
			}, []string{"img000"}, []string{"full", "hidden"})
		})
		if err != nil {
			return nil, err
		}
		addOp, err := perFreshDoc(func(doc *document.Document) error {
			_, err := doc.ApplyOperation("img000", "zoom", "full")
			return err
		})
		if err != nil {
			return nil, err
		}
		remove, err := perFreshDoc(func(doc *document.Document) error {
			return doc.RemoveComponent(fmt.Sprintf("img%03d", n-1))
		})
		if err != nil {
			return nil, err
		}
		// Overlay operations measured on one persistent document.
		doc, err := wideDoc(n)
		if err != nil {
			return nil, err
		}
		ovOp, err := timeIt(50, func() error {
			_, err := doc.ApplyOperationPrivate(doc.NewOverlay(), "img000", "zoom", "full")
			return err
		})
		if err != nil {
			return nil, err
		}
		ov := doc.NewOverlay()
		if _, err := doc.ApplyOperationPrivate(ov, "img000", "zoom", "full"); err != nil {
			return nil, err
		}
		ovSolve, err := timeIt(100, func() error {
			_, err := doc.ReconfigPresentationFor(ov, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmtDur(addComp), fmtDur(addOp), fmtDur(remove), fmtDur(ovOp), fmtDur(ovSolve),
		})
	}
	t.Notes = append(t.Notes,
		"add/remove/operation include rebuilding derived CPT rows; overlay-solve is a per-viewer completion")
	return t, nil
}

// wideDoc builds the n-component WideRecord E2 solves and E9 mutates.
func wideDoc(n int) (*document.Document, error) {
	return workload.WideRecord(fmt.Sprintf("w%d", n), n, int64(n))
}
