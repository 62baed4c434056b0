package room_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/room"
	"mmconf/internal/room/roomtest"
	"mmconf/internal/workload"
)

// walkSeeds is how many seeds the tier-1 test walks: 1 through it.
const walkSeeds = 40

// TestPushedViewsFollowTheEngine is the property a pushed change lives or
// dies by: whatever the room is put through, the view a member's session
// has built from the changes pushed to it is the view the engine solves
// for that member. Each seed walks a room through choices, retractions,
// shared and private operations, environment pins, saved minutes, joins,
// leaves, detach and resume, live takeovers, broadcasts, and members that
// stop draining until their queue sheds (by count, and by a small byte
// budget). After every step every draining member's session — fed by its
// queue through the real codec — equals engine.ViewFor (the presenter's
// during a broadcast), and every presentation was encoded once per
// (view held, new view) class. A member that joins or resumes starts from
// the whole view its response carried, and the first presentation pushed
// to it after that is a change against that view's id, never whole again
// unless its queue shed it. A member that shed presentations equals the
// engine again once it drains, with the room quiet.
//
// A failure names its seed. FuzzPushedViews walks any other seed: the
// nightly fuzz job gives it a minute, and
// `go test ./internal/room -run '^$' -fuzz FuzzPushedViews -fuzztime 1000x`
// walks a thousand.
func TestPushedViewsFollowTheEngine(t *testing.T) {
	shed := 0
	for seed := int64(1); seed <= walkSeeds; seed++ {
		if walk(t, seed) > 0 {
			shed++
		}
	}
	if shed == 0 {
		t.Errorf("none of %d walks shed an event from a stalled member's queue: the property is not being tried where it is hardest", walkSeeds)
	}
	t.Logf("%d walks, %d of them with a member that came back to a shed queue", walkSeeds, shed)
}

// FuzzPushedViews is the same walk from whatever seed the fuzzer hands it.
// Its corpus is a few seeds past the tier-1 test's; a seed that fails is
// written to testdata by the fuzzer and replays as a subtest.
func FuzzPushedViews(f *testing.F) {
	for seed := int64(walkSeeds + 1); seed <= walkSeeds+4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { walk(t, seed) })
}

// walker is one seeded walk's state.
type walker struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	r    *room.Room
	enc  roomtest.Encodes

	live    map[string]*roomtest.Follower
	stalled map[string]bool     // live, not draining
	private map[string][]string // member -> private variables
	step    string
	shed    int // Resync hints seen by members that stalled
}

func (w *walker) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d, %s: %s", w.seed, w.step, fmt.Sprintf(format, args...))
}

func (w *walker) pick(ss []string) string { return ss[w.rng.Intn(len(ss))] }

// settle drains every member that is draining and holds its session
// against the engine.
func (w *walker) settle() {
	w.t.Helper()
	viewer := w.r.Broadcaster()
	for _, name := range w.r.Members() {
		f := w.live[name]
		if f == nil {
			w.fatalf("room member %s is not followed", name)
		}
		if w.stalled[name] {
			continue
		}
		if _, err := f.Drain(&w.enc); err != nil {
			w.fatalf("%v", err)
		}
		as := name
		if viewer != "" {
			as = viewer
		}
		if err := roomtest.CheckView(f.Session, w.r.Engine(), as); err != nil {
			w.fatalf("%s: %v", name, err)
		}
	}
}

// resume drains nothing: it makes the follower a resumed connection
// would be, from the view Resume returned.
func (w *walker) resume(name string) {
	m, _, first, _, err := w.r.Resume(context.Background(), name, 0)
	if err != nil {
		w.fatalf("resume %s: %v", name, err)
	}
	w.follow(m, first)
	delete(w.stalled, name)
}

// follow makes the follower a connection would be, from the first
// presentation a join or resume returned. Its drains then check that the
// first presentation pushed after it is made against it.
func (w *walker) follow(m *room.Member, first room.Event) {
	w.t.Helper()
	f, err := roomtest.Follow(w.r.Name, m, first)
	if err != nil {
		w.fatalf("%v", err)
	}
	w.live[m.Name] = f
}

// walk runs one seed and returns how many Resync hints members that had
// stalled found in their queues: the walks that shed.
func walk(t *testing.T, seed int64) (shed int) {
	t.Helper()
	doc, err := workload.MedicalRecord("rec-walk", seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	r, err := room.New("walk", doc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetGrace(time.Hour)
	w := &walker{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), r: r,
		live: map[string]*roomtest.Follower{}, stalled: map[string]bool{}, private: map[string][]string{},
	}
	// Odd seeds shed by bytes long before the 256-event queue fills.
	if seed%2 == 1 {
		r.SetPushBudget(int64(2000 + w.rng.Intn(6000)))
	}
	ctx := context.Background()
	names := []string{"m0", "m1", "m2", "m3", "m4"}
	levels := []string{core.BandwidthLow, core.BandwidthMedium, core.BandwidthHigh, ""}
	var leaves []string
	for _, c := range doc.Components() {
		if !c.Composite() {
			leaves = append(leaves, c.Name)
		}
	}
	sharedOps, privateOps, minutes := 0, 0, 0

	steps := 80 + w.rng.Intn(80)
	for i := 0; i < steps; i++ {
		in := w.r.Members()
		w.step = fmt.Sprintf("step %d", i)
		describe := func(format string, args ...any) {
			w.step = fmt.Sprintf("step %d (%s)", i, fmt.Sprintf(format, args...))
		}
		switch k := w.rng.Intn(20); {
		case k == 0 || len(in) == 0: // join
			name := w.pick(names)
			describe("join %s", name)
			if w.live[name] != nil {
				continue
			}
			m, _, first, err := r.Join(ctx, name)
			if err != nil {
				w.fatalf("%v", err)
			}
			w.follow(m, first) // supersedes a detached session of that name
			delete(w.private, name)
		case k == 1: // leave
			name := w.pick(in)
			describe("leave %s", name)
			if len(in) == 1 {
				continue
			}
			if err := r.Leave(name); err != nil {
				w.fatalf("%v", err)
			}
			delete(w.live, name)
			delete(w.stalled, name)
			delete(w.private, name)
		case k <= 6: // choice or retraction; may be refused during a broadcast
			name := w.pick(in)
			vars := doc.Prefs.Variables()
			v := vars[w.rng.Intn(len(vars))]
			value := w.pick(append([]string{""}, v.Domain...))
			describe("choice %s %s=%q", name, v.Name, value)
			_ = r.Choice(ctx, name, v.Name, value)
		case k == 7: // choice on a private variable
			name := w.pick(in)
			if len(w.private[name]) == 0 {
				continue
			}
			variable := w.pick(w.private[name])
			value := w.pick([]string{"applied", "flat", ""})
			describe("private choice %s %s=%q", name, variable, value)
			_ = r.Choice(ctx, name, variable, value)
		case k == 8: // operation, shared or private
			name := w.pick(in)
			priv := w.rng.Intn(2) == 0
			if (priv && privateOps >= 5) || (!priv && sharedOps >= 5) {
				continue
			}
			comp := w.pick(leaves)
			dom, err := doc.Prefs.Domain(comp)
			if err != nil {
				w.fatalf("%v", err)
			}
			describe("operation %s on %s private=%v", name, comp, priv)
			derived, err := r.Operation(ctx, name, comp, fmt.Sprintf("op%d", i), w.pick(dom), priv)
			if err != nil {
				continue // refused during a broadcast
			}
			if priv {
				privateOps++
				w.private[name] = append(w.private[name], derived)
			} else {
				sharedOps++
			}
		case k == 9 || k == 10: // one member's measured environment
			name := w.pick(in)
			level := w.pick(levels)
			describe("environment %s %q", name, level)
			if _, err := r.SetMemberEnvironment(name, core.BandwidthVariable, level); err != nil {
				w.fatalf("%v", err)
			}
		case k == 11: // detach, and sometimes resume at once
			name := w.pick(in)
			describe("detach %s", name)
			if len(in) == 1 {
				continue
			}
			if !r.Detach(w.live[name].Member) {
				w.fatalf("detach refused")
			}
			delete(w.live, name)
			delete(w.stalled, name)
		case k == 12: // resume a detached session, or take over a live one
			name := w.pick(in)
			if detached := r.Detached(); len(detached) > 0 && w.rng.Intn(3) > 0 {
				name = w.pick(detached)
			}
			describe("resume %s", name)
			w.resume(name)
		case k == 13: // broadcast start or stop; may be refused
			name := w.pick(in)
			if r.Broadcaster() == "" {
				describe("broadcast start %s", name)
				_ = r.StartBroadcast(name)
			} else {
				describe("broadcast stop %s", name)
				_ = r.StopBroadcast(name)
			}
		case k == 14: // a member stops draining
			name := w.pick(in)
			describe("stall %s", name)
			w.stalled[name] = true
		case k == 15: // a stalled member drains again, the room quiet
			var candidates []string
			for _, name := range in {
				if w.stalled[name] {
					candidates = append(candidates, name)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			name := w.pick(candidates)
			describe("unstall %s", name)
			before := w.live[name].Dropped
			delete(w.stalled, name)
			w.settle()
			w.shed += w.live[name].Dropped - before
		case k == 16: // a burst that overruns a stalled member's queue
			name := w.pick(in)
			n := 40 + w.rng.Intn(300)
			describe("flood: %d chats by %s", n, name)
			for j := 0; j < n; j++ {
				if err := r.Chat(name, "flood"); err != nil {
					w.fatalf("%v", err)
				}
				if j%7 == 0 { // presentations land between the chats, to be shed with them
					vars := doc.Prefs.Variables()
					v := vars[w.rng.Intn(len(vars))]
					_ = r.Choice(ctx, name, v.Name, w.pick(v.Domain))
				}
				if j%64 == 63 {
					w.settle() // the others keep up
				}
			}
		case k == 17: // saved minutes: the document grows a component
			name := w.pick(in)
			if minutes >= 3 {
				continue
			}
			minutes++
			describe("minutes by %s", name)
			if _, err := r.AddMinutesComponent(name, "transcript"); err != nil {
				w.fatalf("%v", err)
			}
		default:
			name := w.pick(in)
			describe("chat %s", name)
			if err := r.Chat(name, "hello"); err != nil {
				w.fatalf("%v", err)
			}
		}
		w.settle()
	}

	// The room goes quiet; everyone drains. A member that shed
	// presentations must end at its current view all the same.
	w.step = "quiet room"
	for name := range w.stalled {
		before := w.live[name].Dropped
		delete(w.stalled, name)
		w.settle()
		w.shed += w.live[name].Dropped - before
	}
	w.settle()
	if w.enc.Events == 0 {
		w.fatalf("the walk pushed no presentation")
	}
	return w.shed
}
