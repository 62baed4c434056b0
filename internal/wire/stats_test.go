package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStatsAndMethodCodesUnderConcurrentUse drives what the message path
// reads without a lock — counter handles, method recorders and the
// method-code table — while other goroutines resolve new counters and
// methods, register new codes (as a program that registers methods of
// its own at start-up does), encode and decode frames, and take every
// kind of snapshot. Run it under the race detector; it also checks the
// totals.
func TestStatsAndMethodCodesUnderConcurrentUse(t *testing.T) {
	const (
		writers = 4
		rounds  = 500
	)
	st := NewStats()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := st.Handle("race.shared")
			own := st.Handle(fmt.Sprintf("race.own.%d", w))
			rec := st.Recorder("race.method")
			for i := 0; i < rounds; i++ {
				shared.Add(1)
				own.Add(2)
				var err error
				if i%5 == 0 {
					err = errors.New("deliberate failure")
				}
				rec.Observe(time.Duration(i)*time.Microsecond, err)
				if i%50 == 0 {
					st.Recorder(fmt.Sprintf("race.late.%d.%d", w, i)).Observe(time.Millisecond, nil)
					RegisterMethodCode(uint16(40000+w*rounds+i), fmt.Sprintf("race.coded.%d.%d", w, i))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // frames through the code table as it is replaced
		defer readers.Done()
		RegisterMethodCode(39999, "race.frame")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			method := "race.frame"
			if i%2 == 1 {
				method = "race.inline"
			}
			env := envelope{Kind: kindPush, ID: uint64(i), Method: method, Payload: []byte{byte(i)}}
			frame := append(appendFrameHeader(nil, &env), env.Payload...)
			if got, err := parseFrame(frame); err != nil || got.Method != method || got.Payload[0] != byte(i) {
				t.Errorf("frame %d: %+v, %v", i, got, err)
				return
			}
		}
	}()
	go func() { // snapshots of everything
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.Counters()
			_ = st.Counter("race.shared")
			if ms := st.Method("race.method"); ms.Errors > ms.Requests+writers {
				t.Errorf("snapshot %+v: more errors than requests", ms)
				return
			}
			_ = st.Snapshot()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := st.Counter("race.shared"); got != writers*rounds {
		t.Errorf("race.shared = %d, want %d", got, writers*rounds)
	}
	all := st.Counters()
	for w := 0; w < writers; w++ {
		if got := all[fmt.Sprintf("race.own.%d", w)]; got != 2*rounds {
			t.Errorf("race.own.%d = %d, want %d", w, got, 2*rounds)
		}
	}
	ms := st.Method("race.method")
	if ms.Requests != writers*rounds || ms.Errors != writers*rounds/5 {
		t.Errorf("race.method = %+v, want %d requests, %d errors", ms, writers*rounds, writers*rounds/5)
	}
	if n := len(st.Snapshot()); n != 1+writers*rounds/50 {
		t.Errorf("%d methods recorded, want %d", n, 1+writers*rounds/50)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i += 50 {
			name := fmt.Sprintf("race.coded.%d.%d", w, i)
			if code, ok := methodCode(name); !ok || code != uint16(40000+w*rounds+i) {
				t.Errorf("%s has code %d, %v", name, code, ok)
			}
		}
	}
}
