package bytecache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// op is one step of a scripted cache history; the table below replays
// such histories and checks the cache's whole observable state after.
type op struct {
	do   string // "put", "offer", "get", "contains"
	key  int
	size int  // payload bytes for put/offer
	want bool // expected result of offer/get/contains
}

func TestCacheHistories(t *testing.T) {
	cases := []struct {
		name      string
		cap       int64
		ops       []op
		resident  []int // keys expected present afterwards
		bytes     int64
		evictions uint64
	}{
		{
			name: "put evicts least recently used",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 40}, {do: "put", key: 2, size: 40},
				{do: "put", key: 3, size: 40},
			},
			resident: []int{2, 3}, bytes: 80, evictions: 1,
		},
		{
			name: "get refreshes recency",
			cap:  30,
			ops: []op{
				{do: "put", key: 1, size: 10}, {do: "put", key: 2, size: 10}, {do: "put", key: 3, size: 10},
				{do: "get", key: 1, want: true},
				{do: "put", key: 4, size: 10}, // evicts 2, the oldest untouched
			},
			resident: []int{1, 3, 4}, bytes: 30, evictions: 1,
		},
		{
			name: "contains does not refresh recency",
			cap:  20,
			ops: []op{
				{do: "put", key: 1, size: 10}, {do: "put", key: 2, size: 10},
				{do: "contains", key: 1, want: true},
				{do: "put", key: 3, size: 10}, // still evicts 1
			},
			resident: []int{2, 3}, bytes: 20, evictions: 1,
		},
		{
			name: "replace adjusts the byte count",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 60}, {do: "put", key: 2, size: 30},
				{do: "put", key: 1, size: 20},
			},
			resident: []int{1, 2}, bytes: 50,
		},
		{
			name: "one big put evicts several",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 30}, {do: "put", key: 2, size: 30}, {do: "put", key: 3, size: 30},
				{do: "put", key: 4, size: 90},
			},
			resident: []int{4}, bytes: 90, evictions: 3,
		},
		{
			name: "oversized put of a new key is dropped",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 50}, {do: "put", key: 2, size: 101},
				{do: "get", key: 2, want: false},
			},
			resident: []int{1}, bytes: 50,
		},
		{
			// The old bytes no longer describe the key, so they go too.
			name: "oversized put drops the stale entry",
			cap:  100,
			ops: []op{
				{do: "put", key: 7, size: 10}, {do: "get", key: 7, want: true},
				{do: "put", key: 7, size: 400},
				{do: "get", key: 7, want: false},
			},
			bytes: 0, evictions: 1,
		},
		{
			name: "offer never evicts",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 60},
				{do: "offer", key: 2, size: 40, want: true},
				{do: "offer", key: 3, size: 1, want: false},
				{do: "offer", key: 4, size: 101, want: false},
			},
			resident: []int{1, 2}, bytes: 100,
		},
		{
			name: "offer reclaims the old entry's bytes on replace",
			cap:  100,
			ops: []op{
				{do: "put", key: 1, size: 60}, {do: "put", key: 2, size: 30},
				{do: "offer", key: 1, size: 70, want: true},  // 30 + 70 fits
				{do: "offer", key: 1, size: 71, want: false}, // 30 + 71 does not
			},
			resident: []int{1, 2}, bytes: 100,
		},
		{
			name: "refused offer keeps the resident bytes",
			cap:  50,
			ops: []op{
				{do: "put", key: 1, size: 20}, {do: "put", key: 2, size: 30},
				{do: "offer", key: 1, size: 25, want: false},
				{do: "get", key: 1, want: true},
			},
			resident: []int{1, 2}, bytes: 50,
		},
		{
			name: "offer refreshes recency",
			cap:  30,
			ops: []op{
				{do: "put", key: 1, size: 10}, {do: "put", key: 2, size: 10},
				{do: "offer", key: 1, size: 10, want: true},
				{do: "put", key: 3, size: 20}, // evicts 2, not the re-offered 1
			},
			resident: []int{1, 3}, bytes: 30, evictions: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.cap)
			var hits, misses uint64
			for i, o := range tc.ops {
				var got bool
				switch o.do {
				case "put":
					c.Put(o.key, make([]byte, o.size))
					got = o.want
				case "offer":
					got = c.Offer(o.key, make([]byte, o.size))
				case "get":
					_, got = c.Get(o.key)
					if got {
						hits++
					} else {
						misses++
					}
				case "contains":
					got = c.Contains(o.key)
				}
				if got != o.want {
					t.Fatalf("step %d: %s(%d) = %v, want %v", i, o.do, o.key, got, o.want)
				}
				if st := c.Stats(); st.Bytes > tc.cap {
					t.Fatalf("step %d: %d bytes resident, bound is %d", i, st.Bytes, tc.cap)
				}
			}
			st := c.Stats()
			want := Stats{Hits: hits, Misses: misses, Evictions: tc.evictions, Bytes: tc.bytes, Entries: len(tc.resident)}
			if st != want {
				t.Errorf("stats = %+v, want %+v", st, want)
			}
			for _, k := range tc.resident {
				if !c.Contains(k) {
					t.Errorf("key %d not resident", k)
				}
			}
		})
	}
}

func TestGetReturnsWhatWasPut(t *testing.T) {
	c := New[string](64)
	c.Put("a", []byte("first"))
	c.Put("a", []byte("second"))
	if got, ok := c.Get("a"); !ok || string(got) != "second" {
		t.Errorf("Get = %q, %v; want the replacing payload", got, ok)
	}
	if !c.Offer("a", []byte("third")) {
		t.Fatal("offer that fits was refused")
	}
	if got, _ := c.Get("a"); string(got) != "third" {
		t.Errorf("Get after Offer = %q", got)
	}
}

func TestFillLoadsOnceAndCounts(t *testing.T) {
	c := New[string](1 << 10)
	loads := 0
	load := func() ([]byte, error) { loads++; return []byte("payload"), nil }
	for i := 0; i < 3; i++ {
		got, err := c.Fill("k", load)
		if err != nil || string(got) != "payload" {
			t.Fatalf("Fill = %q, %v", got, err)
		}
	}
	if st := c.Stats(); loads != 1 || st.Misses != 1 || st.Hits != 2 || st.Bytes != 7 {
		t.Errorf("loads = %d, stats = %+v; want one load, one miss, two hits", loads, st)
	}
	// What does not fit is returned but not kept.
	big, err := c.Fill("big", func() ([]byte, error) { return make([]byte, 2<<10), nil })
	if err != nil || len(big) != 2<<10 || c.Contains("big") {
		t.Errorf("oversized Fill: %d bytes, %v, resident=%v", len(big), err, c.Contains("big"))
	}
}

func TestFillSingleflight(t *testing.T) {
	c := New[string](1 << 10)
	const callers = 16
	var entered, loads atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			got, err := c.Fill("k", func() ([]byte, error) {
				loads.Add(1)
				<-release
				return []byte("shared"), nil
			})
			if err != nil || string(got) != "shared" {
				t.Errorf("Fill = %q, %v", got, err)
			}
		}()
	}
	// Hold the load open until every caller has had time to park on it.
	// One that is later still finds the entry cached instead; either
	// way nobody may start a second load.
	for entered.Load() < callers || loads.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("load ran %d times for %d concurrent callers", n, callers)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

func TestFillNeverCachesAnError(t *testing.T) {
	c := New[string](1 << 10)
	boom := errors.New("store unavailable")
	if _, err := c.Fill("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the load's error", err)
	}
	if c.Contains("k") {
		t.Fatal("a failed load left an entry behind")
	}
	got, err := c.Fill("k", func() ([]byte, error) { return []byte("recovered"), nil })
	if err != nil || string(got) != "recovered" {
		t.Fatalf("Fill after a failed load = %q, %v; want a fresh load", got, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want two misses", st)
	}
	// Callers parked on a load that fails get its error, not a hit.
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Fill("j", func() ([]byte, error) { close(started); <-release; return nil, boom })
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Fill("j", func() ([]byte, error) { return []byte("second load"), nil }); err != nil && !errors.Is(err, boom) {
			t.Errorf("joiner err = %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("stats = %+v: a failed load counted a hit", st)
	}
}

// Every method must be safe under -race, and the bound must hold at
// every instant, not just at rest.
func TestConcurrentAccess(t *testing.T) {
	const bound = 16 << 10
	c := New[uint64](bound)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := seed%3*1000 + uint64(i%37) // workers share keys in threes
				switch i % 6 {
				case 0:
					c.Put(id, make([]byte, 128+i%512))
				case 1:
					c.Offer(id, make([]byte, 64))
				case 2:
					c.Get(id)
				case 3:
					c.Contains(id)
				case 4:
					c.Fill(id, func() ([]byte, error) {
						if i%4 == 0 {
							return nil, fmt.Errorf("load %d failed", i)
						}
						return make([]byte, 256), nil
					})
				default:
					if st := c.Stats(); st.Bytes > bound {
						t.Errorf("%d bytes resident, bound is %d", st.Bytes, bound)
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > bound || st.Bytes < 0 {
		t.Fatalf("after concurrent churn: %+v", st)
	}
}
