package prefetch

import (
	"reflect"
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/workload"
)

// rank is RankSchema over the document's compiled schema and the evidence
// vector the choices pin, the two arguments the engine hands it.
func rank(doc *document.Document, choices cpnet.Outcome) ([]Candidate, error) {
	s, err := doc.Schema()
	if err != nil {
		return nil, err
	}
	pins, err := s.Network().Evidence(choices, nil)
	if err != nil {
		return nil, err
	}
	return RankSchema(s, pins)
}

// populatedDoc builds a medical record with distinct object ids.
func populatedDoc(t *testing.T) *document.Document {
	t.Helper()
	d, err := workload.MedicalRecord("p", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]map[string]uint64{
		"ct":    {"full": 11, "segmented": 11, "lowres": 13},
		"xray":  {"full": 12, "icon": 12},
		"voice": {"audio": 14},
	}
	for comp, vals := range ids {
		c, err := d.Component(comp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Presentations {
			if id, ok := vals[c.Presentations[i].Name]; ok {
				c.Presentations[i].ObjectID = id
			}
		}
	}
	return d
}

func TestRankCurrentViewFirst(t *testing.T) {
	doc := populatedDoc(t)
	cands, err := rank(doc, nil)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// The default view shows ct=full (object 11), xray=icon (object 12),
	// voice=audio (object 14): all must carry score 1.
	needed := map[uint64]bool{11: false, 12: false, 14: false}
	for _, c := range cands {
		if _, ok := needed[c.ObjectID]; ok {
			if c.Score != 1.0 {
				t.Errorf("object %d score %v, want 1.0", c.ObjectID, c.Score)
			}
			needed[c.ObjectID] = true
		}
	}
	for id, seen := range needed {
		if !seen {
			t.Errorf("object %d missing from ranking", id)
		}
	}
	// Scores are non-increasing.
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
	// Lookahead candidates exist (the lowres stream, object 13).
	found := false
	for _, c := range cands {
		if c.ObjectID == 13 && c.Score < 1.0 && c.Score > 0 {
			found = true
		}
	}
	if !found {
		t.Error("lookahead did not surface the lowres stream")
	}
}

func TestRankRespectsChoices(t *testing.T) {
	doc := populatedDoc(t)
	cands, err := rank(doc, cpnet.Outcome{"ct": "hidden"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.ObjectID == 11 && c.Score >= 1.0 {
			t.Error("hidden CT payload ranked as needed-now")
		}
	}
	// Bad evidence propagates an error.
	if _, err := rank(doc, cpnet.Outcome{"nosuch": "x"}); err == nil {
		t.Error("bad choices accepted")
	}
}

// A one-record store numbers each table from 1: the CT image, its
// lowres stream and the voice recording are all object 1, the X-ray is
// image 2. Each is its own candidate.
func TestRankKeepsObjectsThatShareAnID(t *testing.T) {
	d, err := workload.MedicalRecord("p", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]map[string]uint64{
		"ct":    {"full": 1, "segmented": 1, "lowres": 1},
		"xray":  {"full": 2, "icon": 2},
		"voice": {"audio": 1},
	}
	for comp, vals := range ids {
		c, err := d.Component(comp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Presentations {
			c.Presentations[i].ObjectID = vals[c.Presentations[i].Name]
		}
	}
	type object struct {
		table string
		id    uint64
	}
	first, err := rank(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[object]int)
	for _, c := range first {
		got[object{mediadb.KindTable(c.Kind), c.ObjectID}]++
	}
	for _, want := range []object{
		{mediadb.ImageTable, 1}, {mediadb.CmpTable, 1}, {mediadb.AudioTable, 1}, {mediadb.ImageTable, 2},
	} {
		if got[want] != 1 {
			t.Errorf("%s object %d ranked %d times, want once (ranking %+v)", want.table, want.id, got[want], first)
		}
	}
	// Ties on score and id are ordered by table, so the ranking does not
	// depend on map iteration order.
	for range 20 {
		again, err := rank(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("ranking changed between calls:\n%+v\n%+v", first, again)
		}
	}
}
