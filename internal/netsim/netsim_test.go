package netsim

import (
	"net"
	"testing"
	"time"
)

func TestLinkTransferTime(t *testing.T) {
	l, err := NewLink(1000, 10*time.Millisecond) // 1000 B/s
	if err != nil {
		t.Fatal(err)
	}
	got := l.TransferTime(500)
	want := 10*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Errorf("TransferTime(500) = %v, want %v", got, want)
	}
	if l.TransferTime(0) != 10*time.Millisecond {
		t.Error("zero bytes should cost latency only")
	}
	if l.TransferTime(-5) != 10*time.Millisecond {
		t.Error("negative bytes not clamped")
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(0, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewLink(100, -time.Second); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestThrottledConnPacesWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tc, err := Throttle(a, 64*1024) // 64 KiB/s
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 32*1024)
		total := 0
		for total < 32*1024 {
			n, err := b.Read(buf[total:])
			if err != nil {
				return
			}
			total += n
		}
	}()
	start := time.Now()
	if _, err := tc.Write(make([]byte, 32*1024)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 32 KiB at 64 KiB/s ≈ 500 ms; allow generous slack either way but
	// require clear evidence of pacing.
	if elapsed < 300*time.Millisecond {
		t.Errorf("write of 32KiB at 64KiB/s took only %v", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("write took %v — pacing broken", elapsed)
	}
}

func TestThrottleValidation(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	if _, err := Throttle(a, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
}
