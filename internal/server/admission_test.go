package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
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
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"admission disabled", Options{MaxInflight: -1}, true},
		{"negative registry shards", Options{RegistryShards: -1}, false},
		{"negative trace ring", Options{TraceRing: -1}, false},
		{"negative queue depth", Options{QueueDepth: -1}, false},
		{"negative per-peer rate", Options{PerPeerRate: -1}, false},
		{"negative per-peer burst", Options{PerPeerBurst: -1}, false},
		{"timeout for known method", Options{MethodTimeouts: map[string]time.Duration{proto.MGetCmp: time.Second}}, true},
		{"timeout for unknown method", Options{MethodTimeouts: map[string]time.Duration{"db.nope": time.Second}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewWith(m, tc.o)
			if tc.ok && err != nil {
				t.Fatalf("NewWith(%+v) = %v, want success", tc.o, err)
			}
			if !tc.ok && err == nil {
				srv.Close()
				t.Fatalf("NewWith(%+v) succeeded, want validation error", tc.o)
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
	if !errors.Is(err, proto.ErrOverloaded) {
		t.Fatalf("second call err = %v, want ErrOverloaded", err)
	}
	var oe *proto.OverloadedError
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

func TestShedClientRetriesPerHint(t *testing.T) {
	addr, rec := admissionSystem(t, Options{
		PerPeerRate:  4, // empty bucket refills a token in 250ms
		PerPeerBurst: 1,
	})
	c, err := client.DialWith(addr, "alice", client.Options{RetryOverloaded: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.GetCmp(rec.CmpID, 1); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// The bucket is now empty: the call is shed, the client sleeps the
	// server's hint and retries into a refilled bucket.
	start := time.Now()
	if _, _, err := c.GetCmp(rec.CmpID, 1); err != nil {
		t.Fatalf("retried call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("retried call returned in %v, want >= 100ms (a retry-after backoff)", elapsed)
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
