package netsim

import (
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns both ends of an in-process connection with the client
// side wrapped by f.
func pipePair(t *testing.T, f *Faults) (wrapped *FaultyConn, peer net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := f.Wrap(a)
	t.Cleanup(func() { fc.Close(); b.Close() })
	return fc, b
}

func TestKillAllResetsMidStream(t *testing.T) {
	f := NewFaults()
	fc, peer := pipePair(t, f)
	go peer.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := fc.Read(buf); err != nil {
		t.Fatalf("read before kill: %v", err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := fc.Read(buf)
		readErr <- err
	}()
	f.KillAll()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("read survived KillAll")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read not interrupted by KillAll")
	}
	// The wrapper fails fast from now on.
	if _, err := fc.Write([]byte("x")); !IsInjected(err) {
		t.Errorf("write after kill = %v, want injected reset", err)
	}
	if _, _, resets := f.Stats(); resets != 1 {
		t.Errorf("resets = %d, want 1", resets)
	}
}

func TestPartitionBlocksUntilHeal(t *testing.T) {
	f := NewFaults()
	fc, peer := pipePair(t, f)
	f.Partition()
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 5)
		_, err := fc.Read(buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("read completed during partition: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	f.Heal()
	go peer.Write([]byte("hello"))
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read after heal: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read never completed after Heal")
	}
}

func TestPartitionedConnDiesOnKill(t *testing.T) {
	f := NewFaults()
	fc, _ := pipePair(t, f)
	f.Partition()
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 4)
		_, err := fc.Read(buf)
		got <- err
	}()
	time.Sleep(50 * time.Millisecond)
	f.KillAll()
	select {
	case err := <-got:
		if !IsInjected(err) {
			t.Errorf("read unblocked with %v, want injected reset", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read stayed blocked after KillAll during partition")
	}
}

func TestCutAfterReadResetsAfterBudget(t *testing.T) {
	f := NewFaults()
	fc, peer := pipePair(t, f)
	f.CutAfterRead(4)
	go peer.Write([]byte("abcdefgh"))
	buf := make([]byte, 8)
	// The read delivering the budget-crossing bytes still returns them —
	// a partial message — and the transport dies under it.
	n, _ := fc.Read(buf)
	if n == 0 {
		t.Fatal("cut read returned no bytes")
	}
	if _, err := fc.Read(buf); !IsInjected(err) {
		t.Errorf("read after cut = %v, want injected reset", err)
	}
	if _, _, resets := f.Stats(); resets != 1 {
		t.Errorf("resets = %d, want 1", resets)
	}
}

// TestCutWriteOverCutsTheFirstLargeWriteOnce: an armed cut passes
// writes of up to n bytes, cuts the first longer one to its first n on
// whichever connection makes it — here one wrapped after arming — and
// then disarms, so the next long write on another connection goes whole.
func TestCutWriteOverCutsTheFirstLargeWriteOnce(t *testing.T) {
	f := NewFaults()
	f.CutWriteOver(4)
	fc, peer := pipePair(t, f)
	other, otherPeer := pipePair(t, f)
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(peer)
		got <- b
	}()
	go io.Copy(io.Discard, otherPeer) //nolint:errcheck — drain until close
	if n, err := fc.Write([]byte("abcd")); n != 4 || err != nil {
		t.Fatalf("write of n bytes = %d, %v", n, err)
	}
	// The longer write leaves only its first n bytes: the peer never sees
	// the rest of the message.
	if n, err := fc.Write([]byte("efghij")); n != 4 || !IsInjected(err) {
		t.Fatalf("cut write = %d, %v; want 4 bytes and an injected reset", n, err)
	}
	if _, err := fc.Write([]byte("k")); !IsInjected(err) {
		t.Errorf("write after cut = %v, want injected reset", err)
	}
	if b := <-got; string(b) != "abcdefgh" {
		t.Errorf("peer read %q, want %q", b, "abcdefgh")
	}
	if n, err := other.Write([]byte("0123456789")); n != 10 || err != nil {
		t.Errorf("long write after the cut fired = %d, %v; want it whole", n, err)
	}
	if _, _, resets := f.Stats(); resets != 1 {
		t.Errorf("resets = %d, want 1", resets)
	}
}

func TestFailDialsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	f := NewFaults()
	dial := f.Dialer(ln.Addr().String())
	ctx := context.Background()

	f.FailDials(2)
	for i := 0; i < 2; i++ {
		if _, err := dial(ctx); !IsInjected(err) {
			t.Fatalf("dial %d = %v, want injected failure", i, err)
		}
	}
	c, err := dial(ctx)
	if err != nil {
		t.Fatalf("dial after budget spent: %v", err)
	}
	c.Close()

	f.FailDials(-1) // fail until reset
	for i := 0; i < 3; i++ {
		if _, err := dial(ctx); !IsInjected(err) {
			t.Fatalf("unlimited fail dial %d = %v", i, err)
		}
	}
	f.FailDials(0)
	c2, err := dial(ctx)
	if err != nil {
		t.Fatalf("dial after FailDials(0): %v", err)
	}
	c2.Close()

	dials, dialFails, _ := f.Stats()
	if dials != 7 || dialFails != 5 {
		t.Errorf("stats dials=%d fails=%d, want 7 and 5", dials, dialFails)
	}
}

func TestPartitionedDialHonorsDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	f := NewFaults()
	dial := f.Dialer(ln.Addr().String())
	f.Partition()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := dial(ctx); err == nil {
		t.Fatal("dial succeeded through a partition")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("partitioned dial ignored the context deadline")
	}
	f.Heal()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
		}
	}()
	c, err := dial(context.Background())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestInjectedLatencyDelaysTraffic(t *testing.T) {
	f := NewFaults()
	fc, peer := pipePair(t, f)
	f.SetLatency(60 * time.Millisecond)
	go func() {
		buf := make([]byte, 2)
		peer.Read(buf)
	}()
	start := time.Now()
	if _, err := fc.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("write took %v, want >= injected latency", d)
	}
}
