package room

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mmconf/internal/core"
	"mmconf/internal/media/image"
)

// TestQuickRoomInvariants drives a room with random member action
// sequences and checks structural invariants after every step:
//
//   - the engine's member set matches the room's members and detached
//     sessions (a detached session keeps its engine state),
//   - every frozen object is held by a current or detached member,
//   - at most one broadcaster, and the broadcaster is one of those,
//   - event sequence numbers in the change buffer strictly increase,
//   - every member can always compute a valid view,
//   - no member's queue holds an event, or has closed, without its
//     consumer being told: each consumer drains only when notified, as a
//     connection's writer does, so a path that queues and does not wake
//     would strand the event there.
//
// The steps cover every method that queues for a member: joins, leaves,
// detach, resume (of a detached session and a live takeover), grace
// expiry, choices, operations, annotations, freezes, shared searches,
// chat, broadcasts, QoS environment pins, the trigger system's choices
// and chats, the shutdown announcement, and Close, which ends the walk.
func TestQuickRoomInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := tunedRoom(t, seed)
		r.SetGrace(time.Hour) // expiry is driven by hand below
		doc := r.Engine().Document()
		ctx := context.Background()

		users := []string{"u0", "u1", "u2", "u3"}
		present := map[string]bool{}
		detached := map[string]bool{}
		consumers := map[*consumer]bool{} // every stream not yet seen to end
		live := map[string]*consumer{}
		follow := func(m *Member) {
			c := watch(m)
			consumers[c] = true
			live[m.Name] = c
			present[m.Name] = true
			delete(detached, m.Name)
		}
		join := func(u string) {
			if present[u] {
				return
			}
			m, _, _, err := r.Join(ctx, u)
			if err != nil {
				t.Logf("join: %v", err)
				return
			}
			follow(m)
		}
		// woken settles every consumer and reports a stranded event.
		woken := func(step string) bool {
			for c := range consumers {
				if err := c.settle(); err != nil {
					t.Logf("seed %d, %s: %v", seed, step, err)
					return false
				}
				if c.ended {
					delete(consumers, c)
				}
			}
			return true
		}
		join("u0")
		if !woken("first join") {
			return false
		}

		vars := doc.Prefs.Variables()
		levels := []string{core.BandwidthLow, core.BandwidthMedium, core.BandwidthHigh, ""}
		annotations := map[string][]int{}
		operations := 0
		ops := 60 + rng.Intn(100)
		for i := 0; i < ops; i++ {
			u := users[rng.Intn(len(users))]
			v := vars[rng.Intn(len(vars))]
			val := v.Domain[rng.Intn(len(v.Domain))]
			var step string
			switch rng.Intn(24) {
			case 0:
				step = "join " + u
				join(u)
			case 1:
				step = "leave " + u
				if (present[u] && len(present) > 1) || detached[u] {
					if err := r.Leave(u); err != nil {
						t.Logf("leave: %v", err)
						return false
					}
					delete(present, u)
					delete(detached, u)
				}
			case 2, 3, 4:
				step = fmt.Sprintf("choice %s %s=%s", u, v.Name, val)
				if present[u] {
					// May legitimately fail during a broadcast.
					_ = r.Choice(ctx, u, v.Name, val)
				}
			case 5:
				step = "freeze " + u
				if present[u] {
					_ = r.Freeze(u, 11)
				}
			case 6:
				step = "release " + u
				if present[u] {
					_ = r.Release(u, 11)
				}
			case 7:
				step = "broadcast start " + u
				if present[u] {
					_ = r.StartBroadcast(u)
				}
			case 8:
				step = "broadcast stop " + u
				if present[u] {
					_ = r.StopBroadcast(u)
				}
			case 9:
				step = "chat " + u
				if present[u] {
					_ = r.Chat(u, fmt.Sprintf("m%d", i))
				}
			case 10:
				step = "detach " + u
				if present[u] && len(present) > 1 {
					if !r.Detach(live[u].m) {
						t.Logf("detach %s refused", u)
						return false
					}
					delete(present, u)
					detached[u] = true
				}
			case 11:
				step = "resume " + u
				if present[u] || detached[u] {
					m, _, _, _, err := r.Resume(ctx, u, 0)
					if err != nil {
						t.Logf("resume: %v", err)
						return false
					}
					follow(m)
				}
			case 12:
				step = "grace expiry " + u
				if detached[u] {
					r.expireSession(u)
					delete(detached, u)
				}
			case 13:
				step = "operation " + u
				if present[u] && operations < 4 {
					if _, err := r.Operation(ctx, u, "ct", fmt.Sprintf("op%d", i), "full", rng.Intn(2) == 0); err == nil {
						operations++
					}
				}
			case 14:
				step = "annotate " + u
				if present[u] {
					if id, err := r.Annotate(u, 11, image.LineElement, 1, 1, 9, 9, "", 1); err == nil {
						annotations[u] = append(annotations[u], id)
					}
				}
			case 15:
				step = "delete annotation " + u
				if ids := annotations[u]; present[u] && len(ids) > 0 {
					_ = r.DeleteAnnotation(u, 11, ids[len(ids)-1])
					annotations[u] = ids[:len(ids)-1]
				}
			case 16:
				step = "share search " + u
				if present[u] {
					_ = r.ShareSearch(u, EvSpeakerSearch, "apnea", nil)
				}
			case 17, 18:
				level := levels[rng.Intn(len(levels))]
				step = fmt.Sprintf("environment %s %q", u, level)
				if present[u] {
					if _, err := r.SetMemberEnvironment(u, core.BandwidthVariable, level); err != nil {
						t.Logf("environment: %v", err)
						return false
					}
				}
			case 19:
				step = fmt.Sprintf("system choice %s=%s", v.Name, val)
				_ = r.SystemChoice(v.Name, val)
			case 20:
				step = "system chat"
				_ = r.SystemChat("notice")
			case 21:
				step = "shutdown announcement"
				r.AnnounceShutdown()
			default:
				step = "chat " + u
				if present[u] {
					_ = r.Chat(u, "hello")
				}
			}
			step = fmt.Sprintf("step %d (%s)", i, step)

			// --- Invariants ---
			if !woken(step) {
				return false
			}
			for c := range consumers {
				if !present[c.m.Name] || live[c.m.Name] != c {
					t.Logf("%s: %s's old stream is still open", step, c.m.Name)
					return false
				}
			}
			members := r.Members()
			if len(members) != len(present) {
				t.Logf("%s: members %v vs present %v", step, members, present)
				return false
			}
			engineViewers := r.Engine().Viewers()
			if len(engineViewers) != len(members)+len(detached) {
				t.Logf("%s: engine viewers %v vs members %v and detached %v", step, engineViewers, members, detached)
				return false
			}
			if holder := r.FrozenBy(11); holder != "" && !present[holder] && !detached[holder] {
				t.Logf("%s: freeze held by departed %q", step, holder)
				return false
			}
			if b := r.Broadcaster(); b != "" && !present[b] && !detached[b] {
				t.Logf("%s: broadcaster %q not present", step, b)
				return false
			}
			var last uint64
			for _, ev := range r.History(0) {
				if ev.Seq <= last {
					t.Logf("%s: seq not increasing", step)
					return false
				}
				last = ev.Seq
			}
			for m := range present {
				if _, err := r.Engine().ViewFor(m); err != nil {
					t.Logf("%s: view for %s: %v", step, m, err)
					return false
				}
			}
		}
		r.Close()
		if !woken("close") {
			return false
		}
		if len(consumers) != 0 {
			t.Logf("seed %d: %d streams still open after Close", seed, len(consumers))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
