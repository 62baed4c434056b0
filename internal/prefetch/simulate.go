package prefetch

import (
	"fmt"
	"time"

	"mmconf/internal/bytecache"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/netsim"
	"mmconf/internal/workload"
)

// Policy selects the client buffering strategy under evaluation in E8.
type Policy int

// Policies.
const (
	// PolicyNone fetches every displayed payload on demand, no buffer.
	PolicyNone Policy = iota
	// PolicyLRU keeps a demand-only LRU buffer.
	PolicyLRU
	// PolicyPreference keeps the LRU buffer and additionally warms it
	// with preference-ranked candidates after every choice.
	PolicyPreference
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyLRU:
		return "lru"
	case PolicyPreference:
		return "preference"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result aggregates one simulated session.
type Result struct {
	Policy          Policy
	Steps           int
	Demands         int64 // payload displays requested
	Hits            int64
	HitRate         float64
	TotalResponse   time.Duration // sum of user-visible waits
	MeanResponse    time.Duration
	FirstDisplay    time.Duration // wait for the initial display (time-to-presentable)
	DemandBytes     int64         // bytes fetched on the critical path
	PrefetchedBytes int64         // bytes fetched ahead of time
}

// Simulate replays a scripted session over a document under the given
// policy, modeling transfers over link. initial is evidence pinned before
// the first display (E15 pins the net/bandwidth tuning variable so the
// solver degrades layered presentations for the simulated link class; E8
// passes nil). Every step applies one viewer choice, recomputes the
// optimal view, and "displays" it: each visible stored payload must be
// present — a cache hit costs nothing, a miss costs the link transfer
// time. PolicyPreference then warms the buffer with warmBudget bytes of
// ranked candidates (modeled off the critical path, as background
// transfer).
func Simulate(doc *document.Document, script []workload.Choice, policy Policy,
	cacheBytes, warmBudget int64, link *netsim.Link, initial cpnet.Outcome) (Result, error) {
	if link == nil {
		return Result{}, fmt.Errorf("prefetch: nil link")
	}
	var buf *simBuffer
	if policy != PolicyNone {
		if cacheBytes <= 0 {
			return Result{}, fmt.Errorf("prefetch: capacity %d must be positive", cacheBytes)
		}
		buf = &simBuffer{lru: bytecache.New[uint64](cacheBytes), capacity: cacheBytes}
	}
	res := Result{Policy: policy, Steps: len(script)}
	choices := cpnet.Outcome{}
	for v, val := range initial {
		choices[v] = val
	}
	display := func() error {
		view, err := doc.ReconfigPresentation(choices)
		if err != nil {
			return err
		}
		for _, c := range doc.Components() {
			if c.Composite() || !view.Visible[c.Name] {
				continue
			}
			p, err := c.Presentation(view.Outcome[c.Name])
			if err != nil || p.ObjectID == 0 {
				continue
			}
			res.Demands++
			if buf != nil {
				if _, ok := buf.lru.Get(p.ObjectID); ok {
					res.Hits++
					continue
				}
				buf.lru.Put(p.ObjectID, make([]byte, p.Bytes))
			}
			res.TotalResponse += link.TransferTime(p.Bytes)
			res.DemandBytes += p.Bytes
		}
		return nil
	}
	warm := func() error {
		if policy != PolicyPreference {
			return nil
		}
		_, n, err := Warm(doc, choices, warmBudget, buf)
		res.PrefetchedBytes += n
		return err
	}
	// Initial display, then one per scripted choice.
	if err := display(); err != nil {
		return Result{}, err
	}
	res.FirstDisplay = res.TotalResponse
	if err := warm(); err != nil {
		return Result{}, err
	}
	for _, ch := range script {
		if !doc.Prefs.HasVariable(ch.Variable) {
			continue
		}
		choices[ch.Variable] = ch.Value
		if err := display(); err != nil {
			return Result{}, err
		}
		if err := warm(); err != nil {
			return Result{}, err
		}
	}
	if res.Demands > 0 {
		res.HitRate = float64(res.Hits) / float64(res.Demands)
		res.MeanResponse = res.TotalResponse / time.Duration(res.Demands)
	}
	return res, nil
}

// simBuffer is the simulation's client buffer. Its documents' object ids
// are distinct across tables, so it keys payloads by bare id; a payload
// is as many zero bytes as the presentation's size estimate.
type simBuffer struct {
	lru      *bytecache.Cache[uint64]
	capacity int64
}

func (b *simBuffer) Holds(c Candidate) bool { return b.lru.Contains(c.ObjectID) }

func (b *simBuffer) Free() int64 { return b.capacity - b.lru.Stats().Bytes }

func (b *simBuffer) Fetch(c Candidate) (int64, error) {
	b.lru.Offer(c.ObjectID, make([]byte, c.Bytes))
	return c.Bytes, nil
}
