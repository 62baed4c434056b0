// Package prefetch ranks the components of §4.4 of the paper (formalized
// in their TR [12], "Predicting Likely Components in CP-net based
// Multimedia Systems"): because the whole document cannot be downloaded
// ahead of time under limited client buffer and bandwidth, the client is
// served the components *most likely to be requested*, using its buffer
// as a cache. Likelihood comes from the preference structure itself: the
// current optimal configuration is needed now, and the configurations
// reachable by the viewer's single next choice are ranked by where the
// author lists that choice in the variable's domain.
//
// RankSchema is the one ranking. The server's QoS loop reads it through
// core.Engine.PrefetchRank and pushes the best candidates into the
// client's media buffer (internal/server/qos.go); E8 and E15 measure that
// path.
package prefetch

import (
	"slices"
	"sort"

	"mmconf/internal/document"
	"mmconf/internal/mediadb"
)

// Candidate is one payload worth holding in the client buffer.
type Candidate struct {
	Component string
	Value     string
	ObjectID  uint64
	Bytes     int64
	// Kind is the presentation's media kind, captured at ranking time so
	// callers (the server's push-prefetch loop) need not re-read the
	// document concurrently with mutating operations.
	Kind document.MediaKind
	// Score in (0, 1]: 1 for payloads of the current optimal view,
	// decaying with the position, in its variable's declared domain, of
	// the hypothetical next choice that would require the payload.
	Score float64
}

// lookaheadWeight scales one-step-lookahead candidates relative to the
// certain ones.
const lookaheadWeight = 0.5

// RankSchema returns candidate payloads in descending likelihood, given a
// compiled document and an evidence vector under it, one per stored
// object: object ids are per table, so a stream and an image that share
// an id are two candidates. Payloads with ObjectID 0 (inline or hidden
// forms) or a kind no table stores are not fetchable and are skipped. It
// reads nothing but its arguments, so it may run while the document it
// was compiled from is edited.
//
// The payloads of the current optimal view score 1. Then comes a
// one-step lookahead: the viewer's next click pins one variable to an
// alternative value, and an alternative at position r of the variable's
// declared domain scores lookaheadWeight/(2+r) — the author lists the
// likelier presentations first. (The position is the domain's, not the
// alternative's rank in the CPT row of the current context.) Each
// lookahead re-solves the base view by propagation from the flipped
// variable and scores only the components whose value or visibility
// differs from the base: any other would offer a base candidate again at
// a lower score, which the best-score-per-object rule drops.
func RankSchema(s *document.Schema, pins []uint8) ([]Candidate, error) {
	base, err := s.Solve(pins)
	if err != nil {
		return nil, err
	}
	type object struct {
		table string
		id    uint64
	}
	best := make(map[object]Candidate)
	add := func(v *document.Solved, j int, score float64) {
		if !v.Visible(j) {
			return
		}
		p, ok := v.Presentation(j)
		if !ok || p.ObjectID == 0 {
			return
		}
		key := object{mediadb.KindTable(p.Kind), p.ObjectID}
		if key.table == "" {
			return
		}
		cand := Candidate{
			Component: s.ComponentName(j), Value: p.Name,
			ObjectID: p.ObjectID, Bytes: p.Bytes, Kind: p.Kind, Score: score,
		}
		if old, ok := best[key]; !ok || cand.Score > old.Score {
			best[key] = cand
		}
	}
	for j := range s.ComponentCount() {
		add(base, j, 1.0)
	}

	ev := slices.Clone(pins)
	var (
		solver  document.Solver
		scratch *document.Solved
		flipped = []int{0}
	)
	net := s.Network()
	for i := range net.Len() {
		current := base.ValueIndex(i)
		for rank := range net.Variable(i).Domain {
			if rank == current {
				continue
			}
			ev[i], flipped[0] = uint8(rank), i
			view, diff, err := solver.Resolve(base, ev, flipped, scratch)
			if err != nil {
				return nil, err
			}
			scratch = view
			score := lookaheadWeight / float64(2+rank)
			for _, j := range diff {
				add(view, j, score)
			}
		}
		ev[i] = pins[i]
	}
	out := make([]Candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].ObjectID != out[j].ObjectID {
			return out[i].ObjectID < out[j].ObjectID
		}
		return mediadb.KindTable(out[i].Kind) < mediadb.KindTable(out[j].Kind)
	})
	return out, nil
}
