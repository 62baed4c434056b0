package wire

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mmconf/internal/obs"
)

// TestRequestFromManyGoroutines: a request's context is read from
// several goroutines while its deadline is set and its Done child made;
// every reader agrees with the others, and the deadline ends Done with
// DeadlineExceeded.
func TestRequestFromManyGoroutines(t *testing.T) {
	conn, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := &Request{conn: conn, trace: obs.Trace{ID: 9}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sp := obs.StartSpan(req, "read")
				_, _ = req.Deadline()
				err := req.Err()
				if id := ContextTraceID(req); id != 9 {
					t.Errorf("trace id %d, want 9", id)
				}
				sp.End()
				if err != nil {
					select {
					case <-req.Done():
					default:
						t.Error("Err reported the end before Done closed")
					}
					return
				}
			}
		}()
	}
	req.SetDeadline(time.Now().Add(20 * time.Millisecond))
	select {
	case <-req.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the deadline did not close Done")
	}
	if err := req.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline: %v", err)
	}
	wg.Wait()
	req.end()
	if err := req.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the handler returned: %v", err)
	}
}
