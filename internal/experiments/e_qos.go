package experiments

import (
	"fmt"

	"mmconf/internal/core"
	"mmconf/internal/netsim"
	"mmconf/internal/qos"
	"mmconf/internal/server"
	"mmconf/internal/workload"
)

// E15QoS measures what the adaptive QoS loop buys over each netsim
// bandwidth profile: a scripted consultation replayed twice per profile
// through a real server and real clients (see consult), with the QoS loop
// pushing into a 1 MiB observer buffer — once with the solver left
// optimistic (static-high, the behaviour without runtime estimation) and
// once with a viewer's choice pinning the bandwidth tuning variable,
// before the first display, to the level the estimator converges to on
// that link (qos.Bands classification of the profile's effective
// goodput). The adaptive run lets the CP-net degrade resolution before
// components, so on slow links the first display arrives earlier.
func E15QoS(workdir string) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Adaptive QoS: bandwidth-tuned degradation vs static-high (§4.4)",
		Columns: []string{"profile", "level", "mode", "first-display", "mean-response", "hit-rate", "demand-KB", "prefetch-KB"},
	}
	m, rec, done, err := recordStore(workdir, "e15")
	if err != nil {
		return nil, err
	}
	defer done()
	script := workload.Session(rec.Doc, []string{"alice", "bob"}, 120, 15)
	bands := qos.DefaultBands()
	for _, p := range netsim.Profiles() {
		link, err := p.Link()
		if err != nil {
			return nil, err
		}
		level := bands.Classify(float64(p.EffectiveBandwidth()), qos.High)
		for _, mode := range []struct {
			name string
			pins []workload.Choice
		}{
			{"static-high", nil},
			{"adaptive", []workload.Choice{{Viewer: "alice", Variable: core.BandwidthVariable, Value: level.String()}}},
		} {
			r, err := consult(m, rec.Doc.ID, consultation{
				opts: server.Options{QoSInterval: qosTick}, buffer: 1 << 20,
				link: link, pins: mode.pins, script: script,
			}, nil)
			if err != nil {
				return nil, fmt.Errorf("E15 %s %s: %w", p.Name, mode.name, err)
			}
			t.Rows = append(t.Rows, []string{
				p.Name,
				level.String(),
				mode.name,
				fmtDur(r.first),
				fmtDur(r.meanResponse()),
				fmt.Sprintf("%.3f", r.hitRate()),
				fmt.Sprint(r.demandBytes >> 10),
				fmt.Sprint(r.pushed >> 10),
			})
		}
	}
	t.Notes = append(t.Notes,
		"level = qos.DefaultBands classification of the profile's effective goodput (what the runtime estimator converges to)",
		"adaptive: a viewer's choice pins net/bandwidth before the first display; static-high leaves the solver optimistic",
		"time is the profile's link model applied to each fetch the real run made; pushes land before each display, off the critical path",
		"expected shape: on dialup, adaptive cuts first-display; on lan the two modes coincide at level=high")
	return t, nil
}
