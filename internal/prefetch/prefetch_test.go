package prefetch

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mmconf/internal/bytecache"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/netsim"
	"mmconf/internal/workload"
)

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
	cands, err := Rank(doc, nil)
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
	cands, err := Rank(doc, cpnet.Outcome{"ct": "hidden"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.ObjectID == 11 && c.Score >= 1.0 {
			t.Error("hidden CT payload ranked as needed-now")
		}
	}
	// Bad evidence propagates an error.
	if _, err := Rank(doc, cpnet.Outcome{"nosuch": "x"}); err == nil {
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
	first, err := Rank(d, nil)
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
		again, err := Rank(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("ranking changed between calls:\n%+v\n%+v", first, again)
		}
	}
}

// countingBuffer is the simulation's buffer with its fetches counted, or
// failed with err.
type countingBuffer struct {
	*simBuffer
	fetched map[uint64]int
	err     error
}

func newCountingBuffer(capacity int64) countingBuffer {
	return countingBuffer{
		simBuffer: &simBuffer{lru: bytecache.New[uint64](capacity), capacity: capacity},
		fetched:   make(map[uint64]int),
	}
}

func (b countingBuffer) Fetch(c Candidate) (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	b.fetched[c.ObjectID]++
	return b.simBuffer.Fetch(c)
}

func TestWarm(t *testing.T) {
	doc := populatedDoc(t)
	buf := newCountingBuffer(1 << 30)
	n, spent, err := Warm(doc, nil, 1<<30, buf)
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if n == 0 || spent != buf.lru.Stats().Bytes {
		t.Errorf("warm fetched %d payloads, %d bytes; the buffer holds %d", n, spent, buf.lru.Stats().Bytes)
	}
	// What is held is not fetched again.
	if n, _, _ := Warm(doc, nil, 1<<30, buf); n != 0 {
		t.Errorf("second warm fetched %d held payloads", n)
	}
	for id, k := range buf.fetched {
		if k != 1 {
			t.Errorf("object %d fetched %d times", id, k)
		}
	}
	// The budget stops the loop once spent.
	if n, _, _ := Warm(doc, nil, 1, newCountingBuffer(1<<30)); n != 1 {
		t.Errorf("warm under a 1-byte budget fetched %d payloads, want 1", n)
	}
	// A candidate larger than the free space is skipped, not made room for.
	small := newCountingBuffer(spent / 2)
	if _, _, err := Warm(doc, nil, 1<<30, small); err != nil {
		t.Fatal(err)
	}
	if st := small.lru.Stats(); st.Evictions != 0 || st.Bytes > spent/2 {
		t.Errorf("warm evicted %d entries, holds %d of %d bytes", st.Evictions, st.Bytes, spent/2)
	}
	// Fetch failures surface.
	bad := newCountingBuffer(1 << 30)
	bad.err = fmt.Errorf("db down")
	if _, _, err := Warm(doc, nil, 1<<30, bad); err == nil {
		t.Error("fetch failure swallowed")
	}
}

func TestSimulatePolicyOrdering(t *testing.T) {
	doc := populatedDoc(t)
	script := workload.Session(doc, []string{"alice", "bob"}, 120, 5)
	link, _ := netsim.NewLink(256<<10, 20*time.Millisecond) // 256 KiB/s
	const cacheBytes = 900 << 10
	const warm = 512 << 10

	results := map[Policy]Result{}
	for _, pol := range []Policy{PolicyNone, PolicyLRU, PolicyPreference} {
		link.Reset()
		r, err := Simulate(doc, script, pol, cacheBytes, warm, link, nil)
		if err != nil {
			t.Fatalf("Simulate(%v): %v", pol, err)
		}
		results[pol] = r
		t.Logf("%-10s hit=%.3f mean=%v demandKB=%d prefetchKB=%d",
			pol, r.HitRate, r.MeanResponse, r.DemandBytes>>10, r.PrefetchedBytes>>10)
	}
	// The paper's shape: preference-based prefetch dominates LRU which
	// dominates no caching, in hit rate and user-visible response time.
	if !(results[PolicyPreference].HitRate > results[PolicyLRU].HitRate) {
		t.Errorf("preference hit rate %.3f not above LRU %.3f",
			results[PolicyPreference].HitRate, results[PolicyLRU].HitRate)
	}
	if results[PolicyNone].HitRate != 0 {
		t.Errorf("no-cache policy reported hits: %.3f", results[PolicyNone].HitRate)
	}
	if !(results[PolicyPreference].TotalResponse < results[PolicyLRU].TotalResponse) {
		t.Errorf("preference response %v not below LRU %v",
			results[PolicyPreference].TotalResponse, results[PolicyLRU].TotalResponse)
	}
	if !(results[PolicyLRU].TotalResponse < results[PolicyNone].TotalResponse) {
		t.Errorf("LRU response %v not below none %v",
			results[PolicyLRU].TotalResponse, results[PolicyNone].TotalResponse)
	}
}

func TestSimulateValidation(t *testing.T) {
	doc := populatedDoc(t)
	if _, err := Simulate(doc, nil, PolicyLRU, 1<<20, 0, nil, nil); err == nil {
		t.Error("nil link accepted")
	}
	if _, err := Simulate(doc, nil, PolicyLRU, 0, 0, mustLink(t), nil); err == nil {
		t.Error("zero cache accepted for caching policy")
	}
	// Unknown variables in the script are skipped, not fatal.
	script := []workload.Choice{{Viewer: "a", Variable: "nosuch", Value: "x"}}
	if _, err := Simulate(doc, script, PolicyNone, 0, 0, mustLink(t), nil); err != nil {
		t.Errorf("unknown-variable choice not skipped: %v", err)
	}
}

func mustLink(t *testing.T) *netsim.Link {
	t.Helper()
	l, err := netsim.NewLink(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPolicyString(t *testing.T) {
	if PolicyNone.String() != "none" || PolicyLRU.String() != "lru" || PolicyPreference.String() != "preference" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy name empty")
	}
}
