package experiments

import (
	"fmt"

	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/netsim"
	"mmconf/internal/prefetch"
	"mmconf/internal/qos"
	"mmconf/internal/workload"
)

// E15QoS measures what the adaptive QoS loop buys over each netsim
// bandwidth profile: a scripted consultation replayed twice per profile —
// once with the solver pinned optimistic (static-high, the behaviour
// without runtime estimation) and once with the bandwidth tuning
// variable pinned to the level the estimator converges to on that link
// (qos.Bands classification of the profile's effective goodput). The
// adaptive run lets the CP-net degrade resolution before components, so
// on slow links the first display arrives earlier and the prefetch
// budget covers more of the script.
func E15QoS() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Adaptive QoS: bandwidth-tuned degradation vs static-high (§4.4)",
		Columns: []string{"profile", "level", "mode", "first-display", "mean-response", "hit-rate", "demand-KB", "prefetch-KB"},
	}
	bands := qos.DefaultBands()
	for _, p := range netsim.Profiles() {
		doc, err := qosDoc(fmt.Sprintf("e15-%s", p.Name))
		if err != nil {
			return nil, err
		}
		script := workload.Session(doc, []string{"alice", "bob"}, 120, 15)
		link, err := p.Link()
		if err != nil {
			return nil, err
		}
		level := bands.Classify(float64(p.EffectiveBandwidth()), qos.High)
		for _, mode := range []struct {
			name    string
			initial cpnet.Outcome
		}{
			{"static-high", nil},
			{"adaptive", cpnet.Outcome{core.BandwidthVariable: level.String()}},
		} {
			link.Reset()
			r, err := prefetch.Simulate(doc, script, prefetch.PolicyPreference,
				1<<20, 512<<10, link, mode.initial)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				p.Name,
				level.String(),
				mode.name,
				fmtDur(r.FirstDisplay),
				fmtDur(r.MeanResponse),
				fmt.Sprintf("%.3f", r.HitRate),
				fmt.Sprint(r.DemandBytes >> 10),
				fmt.Sprint(r.PrefetchedBytes >> 10),
			})
		}
	}
	t.Notes = append(t.Notes,
		"level = qos.DefaultBands classification of the profile's effective goodput (what the runtime estimator converges to)",
		"adaptive pins net/bandwidth before the first display; static-high leaves the solver optimistic",
		"expected shape: on dialup, adaptive cuts first-display and demand bytes; on lan the two modes coincide at level=high",
		"at medium only payloads above the 256 KiB limit are demoted, so 3g rows coincide unless the script displays one")
	return t, nil
}

// qosDoc is the E8 document (object ids and sizes set) extended with the
// automatic bandwidth tuning templates — the same extension the server
// applies when the QoS loop is enabled.
func qosDoc(id string) (*document.Document, error) {
	doc, err := prefetchDoc()
	if err != nil {
		return nil, err
	}
	doc.ID = id
	if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
		return nil, err
	}
	return doc, nil
}
