package experiments

import (
	"fmt"
	"time"

	"mmconf/internal/document"
	"mmconf/internal/netsim"
	"mmconf/internal/prefetch"
	"mmconf/internal/workload"
)

// E8Prefetch reproduces the §4.4 performance machinery: response time and
// buffer hit rate over a scripted consultation, across buffering policies
// (none / LRU / preference-based prefetch) and client buffer sizes.
func E8Prefetch() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Preference-based pre-fetching (§4.4, TR [12])",
		Columns: []string{"buffer", "policy", "hit-rate", "mean-response", "demand-KB", "prefetch-KB"},
	}
	doc, err := prefetchDoc()
	if err != nil {
		return nil, err
	}
	script := workload.Session(doc, []string{"alice", "bob", "carol"}, 150, 11)
	link, err := netsim.NewLink(256<<10, 30*time.Millisecond)
	if err != nil {
		return nil, err
	}
	const warmBudget = 512 << 10
	for _, buffer := range []int64{256 << 10, 512 << 10, 1 << 20, 4 << 20} {
		for _, pol := range []prefetch.Policy{prefetch.PolicyNone, prefetch.PolicyLRU, prefetch.PolicyPreference} {
			link.Reset()
			r, err := prefetch.Simulate(doc, script, pol, buffer, warmBudget, link, nil)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dKiB", buffer>>10),
				pol.String(),
				fmt.Sprintf("%.3f", r.HitRate),
				fmtDur(r.MeanResponse),
				fmt.Sprint(r.DemandBytes >> 10),
				fmt.Sprint(r.PrefetchedBytes >> 10),
			})
		}
	}
	t.Notes = append(t.Notes,
		"link: 256 KiB/s, 30 ms; 150 scripted choices by 3 viewers over the medical record",
		"expected shape: preference ≥ lru ≥ none in hit rate; response time ordered the other way")
	return t, nil
}

// prefetchDoc builds the medical record with object ids and sizes set.
func prefetchDoc() (*document.Document, error) {
	doc, err := workload.MedicalRecord("e8", 1)
	if err != nil {
		return nil, err
	}
	ids := map[string]map[string]uint64{
		"ct":    {"full": 11, "segmented": 15, "lowres": 13},
		"xray":  {"full": 12, "icon": 16},
		"voice": {"audio": 14},
	}
	for comp, vals := range ids {
		c, err := doc.Component(comp)
		if err != nil {
			return nil, err
		}
		for i := range c.Presentations {
			if id, ok := vals[c.Presentations[i].Name]; ok {
				c.Presentations[i].ObjectID = id
			}
		}
	}
	return doc, nil
}
