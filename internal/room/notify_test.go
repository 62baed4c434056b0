package room

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/media/image"
	"mmconf/internal/workload"
)

// TestChoiceKicksEachMemberOnce pins what a room operation costs the
// members' consumers in wake-ups: one each, however many events the
// operation queued for them, and with all of them queued when it comes.
// In a four-member room a choice queues its EvChoice and the
// presentation its re-solve causes for every member, so a consumer told
// per event was told twice (8 kicks per choice), and a connection writer
// woken by the first drained half the choice and went round again. The
// same holds for a shared operation (EvOperation and a presentation), a
// chat (one event), and a leave that retracts a choice (EvLeave and a
// presentation for each member who stays; one for the leaver, whose
// stream it closes).
func TestChoiceKicksEachMemberOnce(t *testing.T) {
	r := newRoom(t)
	ctx := context.Background()
	names := []string{"a", "b", "c", "d"}
	members := map[string]*Member{}
	kicks := map[string]int{}
	queued := map[string]int{} // the member's queue depth when it was last told
	for _, name := range names {
		m, _, _, err := r.Join(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		members[name] = m
		m.SetNotify(func() { // under the room lock, on this goroutine
			kicks[name]++
			queued[name] = len(m.Events())
		})
	}
	settle := func() {
		for _, m := range members {
			for len(m.Events()) > 0 {
				m.Consumed(<-m.Events())
			}
		}
		clear(kicks)
		clear(queued)
	}
	if err := r.Choice(ctx, "d", "ct", "segmented"); err != nil {
		t.Fatal(err) // the choice the leave below retracts
	}
	settle()

	for _, tc := range []struct {
		name   string
		op     func() error
		events int // queued for each member who stays
	}{
		{"choice", func() error { return r.Choice(ctx, "a", "xray", "full") }, 2},
		{"operation", func() error {
			_, err := r.Operation(ctx, "b", "ct", "zoom", "full", false)
			return err
		}, 2},
		{"chat", func() error { return r.Chat("c", "hello") }, 1},
		{"leave retracting a choice", func() error { return r.Leave("d") }, 2},
	} {
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, name := range names {
			if kicks[name] != 1 {
				t.Errorf("%s: %s was told %d times, want once", tc.name, name, kicks[name])
			}
			if name == "d" && tc.name == "leave retracting a choice" {
				continue // told that its stream closed
			}
			if queued[name] != tc.events {
				t.Errorf("%s: %s was told with %d events queued, want all %d", tc.name, name, queued[name], tc.events)
			}
		}
		settle()
	}
}

// consumer drains its member's queue only when the room tells it to, as
// a connection's writer does: whatever it is not told of stays queued.
type consumer struct {
	m     *Member
	told  atomic.Bool // notify ran since the last drain
	ended bool        // the drain found the stream closed
}

// watch installs m's notify hook and polls once for what the member was
// queued before it had one (a join's own events).
func watch(m *Member) *consumer {
	c := &consumer{m: m}
	m.SetNotify(func() { c.told.Store(true) })
	c.drain()
	return c
}

func (c *consumer) drain() {
	for {
		select {
		case ev, ok := <-c.m.Events():
			if !ok {
				c.ended = true
				return
			}
			c.m.Consumed(ev)
		default:
			return
		}
	}
}

// settle drains the consumer if it was told to, and reports an event or
// a closed stream the room left it without telling it.
func (c *consumer) settle() error {
	if c.told.Swap(false) {
		c.drain()
	}
	if c.ended {
		return nil
	}
	select {
	case ev, ok := <-c.m.Events():
		if !ok {
			return fmt.Errorf("%s's stream closed and its consumer was not told", c.m.Name)
		}
		return fmt.Errorf("%s holds %v (Seq %d) and its consumer was not told", c.m.Name, ev.Kind, ev.Seq)
	default:
		return nil
	}
}

// tunedRoom is newRoom with the bandwidth variable the QoS loop pins, so
// SetMemberEnvironment has something to re-solve.
func tunedRoom(t *testing.T, seed int64) *Room {
	t.Helper()
	doc, err := workload.MedicalRecord("rec", seed)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := doc.Component("ct")
	for i := range ct.Presentations {
		if ct.Presentations[i].Name != "hidden" {
			ct.Presentations[i].ObjectID = 11
		}
	}
	if err := core.AddBandwidthTuning(doc, core.AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	r, err := New("notify", doc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestNotifiedQueuesEmptyUnderConcurrentUse is the lost-wake-up guard
// with the room used from several goroutines at once, as a server's
// handlers, QoS loop and expiry timers use it. Each member's consumer
// drains only when told, on a goroutine of its own; once the callers
// stop, every queue must empty, and after Close every consumer must
// have been told that its stream ended, within a deadline. A churning
// member joins, detaches, resumes and leaves meanwhile, and each of its
// consumers must see its stream end.
func TestNotifiedQueuesEmptyUnderConcurrentUse(t *testing.T) {
	r := tunedRoom(t, 3)
	r.SetGrace(time.Hour)
	r.SetPushBudget(4096) // shed by bytes too: a drop must not lose the wake-up either
	ctx := context.Background()
	var consumers sync.WaitGroup
	// follow runs m's consumer: woken by a kick, it drains until empty,
	// and returns when the stream has closed.
	follow := func(m *Member) {
		kick := make(chan struct{}, 1)
		m.SetNotify(func() {
			select {
			case kick <- struct{}{}:
			default:
			}
		})
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				for drained := false; !drained; {
					select {
					case ev, ok := <-m.Events():
						if !ok {
							return
						}
						m.Consumed(ev)
					default:
						drained = true
					}
				}
				<-kick
			}
		}()
	}
	names := []string{"m0", "m1", "m2", "m3"}
	var members []*Member
	for _, name := range names {
		m, _, _, err := r.Join(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
		follow(m)
	}
	vars := r.Engine().Document().Prefs.Variables()
	levels := []string{core.BandwidthLow, core.BandwidthMedium, core.BandwidthHigh, ""}

	var callers sync.WaitGroup
	for g := 0; g < 3; g++ {
		callers.Add(1)
		go func(seed int64) {
			defer callers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				actor := names[rng.Intn(len(names))]
				v := vars[rng.Intn(len(vars))]
				switch rng.Intn(12) {
				case 0, 1, 2:
					_ = r.Choice(ctx, actor, v.Name, v.Domain[rng.Intn(len(v.Domain))])
				case 3:
					_, _ = r.SetMemberEnvironment(actor, core.BandwidthVariable, levels[rng.Intn(len(levels))])
				case 4:
					if id, err := r.Annotate(actor, 11, image.LineElement, 1, 1, 9, 9, "", 1); err == nil {
						_ = r.DeleteAnnotation(actor, 11, id)
					}
				case 5:
					if r.Freeze(actor, 11) == nil {
						_ = r.Release(actor, 11)
					}
				case 6:
					_ = r.ShareSearch(actor, EvWordSearch, "apnea", nil)
				case 7:
					if r.StartBroadcast(actor) == nil {
						_ = r.StopBroadcast(actor)
					}
				case 8:
					_ = r.SystemChoice(v.Name, v.Domain[rng.Intn(len(v.Domain))])
				case 9:
					_ = r.SystemChat("notice")
				case 10:
					r.AnnounceShutdown()
				default:
					_ = r.Chat(actor, "hello")
				}
			}
		}(int64(g + 1))
	}
	callers.Add(1)
	go func() { // the churning member
		defer callers.Done()
		for i := 0; i < 20; i++ {
			m, _, _, err := r.Join(ctx, "churn")
			if err != nil {
				t.Error(err)
				return
			}
			follow(m)
			_ = r.Chat("churn", "here")
			r.Detach(m)
			if m, _, _, _, err = r.Resume(ctx, "churn", 0); err != nil {
				t.Error(err)
				return
			}
			follow(m)
			if err := r.Leave("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	callers.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for _, m := range members {
		for len(m.Events()) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s still holds %d events its consumer was not told of", m.Name, len(m.Events()))
			}
			time.Sleep(time.Millisecond)
		}
	}
	r.Close()
	done := make(chan struct{})
	go func() {
		consumers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a consumer was never told that its stream closed")
	}
}
