package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mmconf/internal/room"
	"mmconf/internal/workload"
)

// E5Propagation measures the shared-room machinery behind Fig. 8: the
// latency from one partner's action to every other partner having
// received both the action event and their updated presentation, as the
// room grows, plus the sustained event throughput.
func E5Propagation() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Room change propagation (Fig. 8)",
		Columns: []string{"members", "choice-latency", "chat-latency", "events/s"},
	}
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		choiceLat, chatLat, throughput, err := propagationRun(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmtDur(choiceLat), fmtDur(chatLat),
			fmt.Sprintf("%.0f", throughput),
		})
	}
	t.Notes = append(t.Notes,
		"choice-latency includes per-member presentation recomputation; chat is propagation only")
	// Ablation: event diffs vs re-sending the whole document per change.
	diffBytes, docBytes, mediaBytes, err := diffVsWholeDocument()
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"ablation: one choice propagates %d bytes of events per member; re-sending the whole object for redisplay would ship %d bytes of structure plus %d KiB of referenced media (%.0fx saving) — \"the hierarchical structure of the object permits sending only the relevant parts\"",
		diffBytes, docBytes, mediaBytes>>10, float64(docBytes+int(mediaBytes))/float64(diffBytes)))
	return t, nil
}

// diffVsWholeDocument measures the per-member bytes of propagating one
// choice as events (what the room does) against re-shipping the whole
// serialized document (the naive alternative, §5.3).
func diffVsWholeDocument() (diffBytes, docBytes int, mediaBytes int64, err error) {
	doc, err := workload.MedicalRecord("e5diff", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		return 0, 0, 0, err
	}
	docBytes = len(data)
	r, err := room.New("diff", doc)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	m, _, _, err := r.Join(context.Background(), "a")
	if err != nil {
		return 0, 0, 0, err
	}
	if err := r.Choice(context.Background(), "a", "ct", "segmented"); err != nil {
		return 0, 0, 0, err
	}
	// What a full redisplay would re-transfer: the view's media payloads.
	view, err := doc.ReconfigPresentation(map[string]string{"ct": "segmented"})
	if err != nil {
		return 0, 0, 0, err
	}
	mediaBytes = doc.TransferBytes(view)
	deadline := time.After(2 * time.Second)
	got := 0
	for got < 2 { // the choice event + the presentation event
		select {
		case ev := <-m.Events():
			if ev.Kind == room.EvChoice || ev.Kind == room.EvPresentation {
				payload, _ := ev.EncodeShared() // the bytes the push carries
				diffBytes += len(payload)
				got++
			}
		case <-deadline:
			return 0, 0, 0, fmt.Errorf("experiments: choice events never arrived")
		}
	}
	return diffBytes, docBytes, mediaBytes, nil
}

// propagationRun measures one room size.
func propagationRun(n int) (choiceLat, chatLat time.Duration, eventsPerSec float64, err error) {
	doc, err := workload.MedicalRecord("e5", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	r, err := room.New("bench", doc)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	members := make([]*room.Member, n)
	for i := 0; i < n; i++ {
		m, _, _, err := r.Join(context.Background(), fmt.Sprintf("m%02d", i))
		if err != nil {
			return 0, 0, 0, err
		}
		members[i] = m
	}
	// Drain join noise.
	drainAll(members, 20*time.Millisecond)

	// await starts goroutines that wait until every member saw an event
	// matching pred, then reports the elapsed time from start.
	await := func(pred func(room.Event) bool, act func() error) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make(chan error, n)
		start := time.Now()
		for _, m := range members {
			wg.Add(1)
			go func(m *room.Member) {
				defer wg.Done()
				timeout := time.After(5 * time.Second)
				for {
					select {
					case ev, ok := <-m.Events():
						if !ok {
							errs <- fmt.Errorf("member channel closed")
							return
						}
						if pred(ev) {
							return
						}
					case <-timeout:
						errs <- fmt.Errorf("event never arrived")
						return
					}
				}
			}(m)
		}
		if err := act(); err != nil {
			return 0, err
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errs:
			return 0, err
		default:
		}
		return elapsed, nil
	}

	// One choice: everyone must receive their updated presentation.
	const rounds = 10
	var choiceTotal time.Duration
	values := []string{"segmented", "full", "lowres"}
	for i := 0; i < rounds; i++ {
		val := values[i%len(values)]
		d, err := await(
			func(ev room.Event) bool {
				// The join noise is drained, so the one presentation
				// each round's choice pushes to a member is the first
				// it sees (read off the queue in-process, it carries
				// no run until it is encoded).
				return ev.Kind == room.EvPresentation
			},
			func() error { return r.Choice(context.Background(), "m00", "ct", val) },
		)
		if err != nil {
			return 0, 0, 0, err
		}
		choiceTotal += d
	}
	choiceLat = choiceTotal / rounds

	var chatTotal time.Duration
	for i := 0; i < rounds; i++ {
		text := fmt.Sprintf("msg-%d", i)
		d, err := await(
			func(ev room.Event) bool { return ev.Kind == room.EvChat && ev.Text == text },
			func() error { return r.Chat("m00", text) },
		)
		if err != nil {
			return 0, 0, 0, err
		}
		chatTotal += d
	}
	chatLat = chatTotal / rounds

	// Throughput: fire a burst of chats while all members drain. Member
	// queues shed their oldest entries under overload (by design), so the
	// consumers run until they see the final marker message — which, being
	// newest, survives shedding — and report how many events were actually
	// delivered.
	const burst = 500
	var wg sync.WaitGroup
	var delivered int64
	var deliveredMu sync.Mutex
	for _, m := range members {
		wg.Add(1)
		go func(m *room.Member) {
			defer wg.Done()
			seen := int64(0)
			timeout := time.After(10 * time.Second)
			for {
				select {
				case ev, ok := <-m.Events():
					if !ok {
						return
					}
					if ev.Kind == room.EvChat {
						seen++
						if ev.Text == "burst-final" {
							deliveredMu.Lock()
							delivered += seen
							deliveredMu.Unlock()
							return
						}
					}
				case <-timeout:
					deliveredMu.Lock()
					delivered += seen
					deliveredMu.Unlock()
					return
				}
			}
		}(m)
	}
	start := time.Now()
	for i := 0; i < burst; i++ {
		text := "burst"
		if i == burst-1 {
			text = "burst-final"
		}
		if err := r.Chat("m00", text); err != nil {
			return 0, 0, 0, err
		}
	}
	wg.Wait()
	eventsPerSec = float64(delivered) / time.Since(start).Seconds()
	return choiceLat, chatLat, eventsPerSec, nil
}

// drainAll empties every member queue for the given settle window.
func drainAll(members []*room.Member, settle time.Duration) {
	for _, m := range members {
		for {
			select {
			case <-m.Events():
			case <-time.After(settle):
				goto next
			}
		}
	next:
	}
}
