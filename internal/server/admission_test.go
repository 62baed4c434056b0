package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// admissionSystem is testSystem with caller-chosen admission options.
func admissionSystem(t *testing.T, o Options) (string, *workload.PopulatedRecord) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.Populate(m, "p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), rec
}

func TestOptionsValidation(t *testing.T) {
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	// refused names the field a refusal must name; empty for accepted
	// options.
	cases := []struct {
		name    string
		o       Options
		refused string
	}{
		{"zero value", Options{}, ""},
		{"admission disabled", Options{MaxInflight: -1}, ""},
		{"push-prefetch disabled", Options{PrefetchBudget: -1}, ""},
		{"negative queue depth", Options{QueueDepth: -1}, "QueueDepth"},
		{"negative queue timeout", Options{QueueTimeout: -1}, "QueueTimeout"},
		{"negative per-peer rate", Options{PerPeerRate: -1}, "PerPeerRate"},
		{"negative per-peer burst", Options{PerPeerBurst: -1}, "PerPeerBurst"},
		{"negative QoS interval", Options{QoSInterval: -1}, "QoSInterval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewWith(m, tc.o)
			if tc.refused == "" && err != nil {
				t.Fatalf("NewWith(%+v) = %v, want success", tc.o, err)
			}
			if tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)) {
				if srv != nil {
					srv.Close()
				}
				t.Fatalf("NewWith(%+v) = %v, want a refusal naming %s", tc.o, err, tc.refused)
			}
			if srv != nil {
				srv.Close()
			}
		})
	}
}

func TestPerPeerRateLimitE2E(t *testing.T) {
	addr, _ := admissionSystem(t, Options{
		PerPeerRate:  0.5, // one token every 2s: the second bulk call sheds
		PerPeerBurst: 1,
	})
	c := dial(t, addr, "alice")
	if _, _, err := c.ListDocuments(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_, _, err := c.ListDocuments()
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("second call err = %v, want ErrOverloaded", err)
	}
	var oe *wire.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %v does not carry the typed overload", err)
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > 5*time.Second {
		t.Fatalf("retry-after %v, want (0, 5s]", oe.RetryAfter)
	}
	// Control RPCs bypass the bucket: stats succeed while bulk sheds.
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(); err != nil {
			t.Fatalf("control call %d: %v", i, err)
		}
	}
	// A second connection has a fresh bucket.
	c2 := dial(t, addr, "bob")
	if _, _, err := c2.ListDocuments(); err != nil {
		t.Fatalf("fresh peer: %v", err)
	}
}

// TestShedClientRetriesPerHint: a call the server sheds reaches the
// client's caller as a *wire.OverloadError carrying the retry-after
// hint, and a caller that sleeps the hint and retries lands in a
// refilled bucket.
func TestShedClientRetriesPerHint(t *testing.T) {
	addr, rec := admissionSystem(t, Options{
		PerPeerRate:  4, // empty bucket refills a token in 250ms
		PerPeerBurst: 1,
	})
	c := dial(t, addr, "alice")
	if _, _, err := c.GetCmp(rec.CmpID, 1); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_, _, err := c.GetCmp(rec.CmpID, 1)
	var oe *wire.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("call into an empty bucket = %v, want a *wire.OverloadError", err)
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > 250*time.Millisecond {
		t.Fatalf("retry-after %v, want (0, 250ms]: the bucket's refill time", oe.RetryAfter)
	}
	time.Sleep(oe.RetryAfter)
	if _, _, err := c.GetCmp(rec.CmpID, 1); err != nil {
		t.Fatalf("call after sleeping the hint: %v", err)
	}
}

func TestAdmissionMetricsSurface(t *testing.T) {
	addr, _ := admissionSystem(t, Options{
		MaxInflight:  2,
		PerPeerRate:  0.5,
		PerPeerBurst: 1,
	})
	c := dial(t, addr, "alice")
	c.ListDocuments()
	c.ListDocuments() // shed by the bucket
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters[wire.CounterShedRate]; got == 0 {
		t.Fatalf("counter %s = %d, want > 0", wire.CounterShedRate, got)
	}
	if _, ok := stats.Gauges["admission.inflight"]; !ok {
		t.Fatal("admission.inflight gauge missing from the metrics surface")
	}
	if _, ok := stats.Gauges["admission.queued"]; !ok {
		t.Fatal("admission.queued gauge missing from the metrics surface")
	}
}
