package server

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/room"
)

// testSystemWith is testSystem with explicit pipeline options.
func testSystemWith(t *testing.T, o Options) (*Server, string) {
	t.Helper()
	srv, addr, _ := testSystemOpts(t, o)
	return srv, addr
}

// TestConcurrentRoomLifecycle churns many peers through many rooms at
// once — joining, acting, leaving cleanly or dropping the connection —
// so the race detector can check the sharded registry, the per-peer
// session table, and eviction against each other. All rooms bind the
// same document, so room creation also races within and across shards.
func TestConcurrentRoomLifecycle(t *testing.T) {
	srv, addr := testSystemWith(t, Options{})
	const (
		roomN = 8
		peerN = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, roomN*peerN)
	for ri := 0; ri < roomN; ri++ {
		for pi := 0; pi < peerN; pi++ {
			wg.Add(1)
			go func(ri, pi int) {
				defer wg.Done()
				user := fmt.Sprintf("user-%d-%d", ri, pi)
				c, err := client.Dial(addr, user)
				if err != nil {
					errs <- fmt.Errorf("%s dial: %w", user, err)
					return
				}
				defer c.Close()
				roomName := fmt.Sprintf("ward-%d", ri)
				s, _, err := c.Join(roomName, "p1", 0)
				if err != nil {
					errs <- fmt.Errorf("%s join: %w", user, err)
					return
				}
				rng := rand.New(rand.NewSource(int64(ri*peerN + pi)))
				for i := 0; i < 5; i++ {
					var err error
					switch rng.Intn(3) {
					case 0:
						err = s.Choice("ct", "segmented")
					case 1:
						err = s.Chat(fmt.Sprintf("note %d from %s", i, user))
					case 2:
						_, err = s.History(0)
					}
					if err != nil {
						errs <- fmt.Errorf("%s act: %w", user, err)
						return
					}
				}
				// Half the peers leave politely; the rest just hang up and
				// exercise the eviction path.
				if pi%2 == 0 {
					if err := s.Leave(); err != nil {
						errs <- fmt.Errorf("%s leave: %w", user, err)
					}
				}
			}(ri, pi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The default interceptor chain is live: its stats counted the churn.
	if got := srv.Stats().Method(proto.MJoinRoom).Requests; got != roomN*peerN {
		t.Errorf("join requests counted = %d, want %d", got, roomN*peerN)
	}
	if srv.Stats().Method(proto.MChoice).MaxLatency <= 0 {
		t.Error("choice latency never observed")
	}
}

// TestMethodTimeoutAbortsRoomWork proves the per-request context flows
// from wire dispatch into the room entry points: with an immediate
// deadline on MChoice, the room aborts the choice before touching any
// state, and the client sees the context error over the wire.
func TestMethodTimeoutAbortsRoomWork(t *testing.T) {
	_, addr := testSystemWith(t, Options{
		MethodTimeouts: map[string]time.Duration{proto.MChoice: time.Nanosecond},
		Logf:           func(string, ...any) {},
	})
	c := dial(t, addr, "alice")
	s, _, err := c.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Choice("ct", "segmented")
	if err == nil {
		t.Fatal("choice with expired deadline succeeded")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("choice error = %v, want a deadline error", err)
	}
	// The abort happened before the engine mutated: nothing propagated.
	hist, err := s.History(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range hist {
		if ev.Kind == room.EvChoice {
			t.Fatalf("aborted choice still reached the room log: %+v", ev)
		}
	}
}

// TestShutdownAnnouncesToRooms checks the graceful drain order: members
// receive the room.EvShutdown announcement while their connections are
// still up, and requests arriving after the drain began are refused.
func TestShutdownAnnouncesToRooms(t *testing.T) {
	srv, addr := testSystemWith(t, Options{})
	alice := dial(t, addr, "alice")
	sa, _, err := alice.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The shutdown announcement must have been pushed before teardown.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev, ok := <-alice.Events():
			if !ok {
				t.Fatal("event stream closed before shutdown announcement")
			}
			if ev.Kind == room.EvShutdown {
				if ev.Actor != "system/server" {
					t.Errorf("shutdown actor = %q", ev.Actor)
				}
				goto drained
			}
		case <-deadline:
			t.Fatal("no shutdown announcement received")
		}
	}
drained:
	if err := sa.Chat("anyone there?"); err == nil {
		t.Error("request accepted after shutdown")
	}
}

// TestDrainFlushesQueuedPushes checks the batched peer writers lose
// nothing on a graceful stop: a burst of events still queued behind the
// coalescing writer when Shutdown begins must reach the client before
// the connections close, followed by the shutdown announcement.
func TestDrainFlushesQueuedPushes(t *testing.T) {
	srv, addr := testSystemWith(t, Options{})
	alice := dial(t, addr, "alice")
	if _, _, err := alice.Join("consult", "p1", 0); err != nil {
		t.Fatal(err)
	}
	bob := dial(t, addr, "bob")
	sb, _, err := bob.Join("consult", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 50
	for i := 0; i < burst; i++ {
		if err := sb.Chat(fmt.Sprintf("note %d", i)); err != nil {
			t.Fatalf("chat %d: %v", i, err)
		}
	}
	// Shut down immediately: the burst is broadcast into member queues
	// but much of it still sits behind alice's batched writer.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	chats := 0
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev, ok := <-alice.Events():
			if !ok {
				t.Fatalf("stream closed with %d/%d chats and no shutdown announcement", chats, burst)
			}
			switch ev.Kind {
			case room.EvChat:
				chats++
			case room.EvShutdown:
				if chats != burst {
					t.Errorf("shutdown announced after %d/%d chats delivered", chats, burst)
				}
				return
			}
		case <-deadline:
			t.Fatalf("drain delivered %d/%d chats, no shutdown announcement", chats, burst)
		}
	}
}
