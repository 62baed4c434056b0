package netsim

import (
	"net"
	"testing"
	"time"
)

func TestProfilePresets(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("got %d presets", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Bandwidth <= ps[i-1].Bandwidth {
			t.Fatalf("presets not ordered worst-first: %s <= %s", ps[i].Name, ps[i-1].Name)
		}
	}
	for _, p := range ps {
		got, ok := ProfileByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("ProfileByName(%q) = %+v ok=%v", p.Name, got, ok)
		}
		if eff := p.EffectiveBandwidth(); eff > p.Bandwidth || eff <= 0 {
			t.Fatalf("%s: effective bandwidth %d out of range", p.Name, eff)
		}
		l, err := p.Link()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if l.Latency != p.Latency {
			t.Fatalf("%s: link latency %v", p.Name, l.Latency)
		}
	}
	if _, ok := ProfileByName("isdn"); ok {
		t.Fatal("unknown profile resolved")
	}
}

func TestProfileLossCostsBandwidth(t *testing.T) {
	clean := Profile{Name: "x", Bandwidth: 10_000}
	lossy := Profile{Name: "x", Bandwidth: 10_000, Loss: 0.10}
	if lossy.EffectiveBandwidth() >= clean.EffectiveBandwidth() {
		t.Fatalf("loss did not reduce goodput: %d vs %d",
			lossy.EffectiveBandwidth(), clean.EffectiveBandwidth())
	}
	cl, _ := clean.Link()
	ll, _ := lossy.Link()
	if ll.TransferTime(100_000) <= cl.TransferTime(100_000) {
		t.Fatal("lossy transfer not slower")
	}
}

func TestProfileThrottlePacesWrites(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	// 64 KB/s: 16 KB should take ~250 ms.
	p := Profile{Name: "t", Bandwidth: 64_000}
	tc, err := Throttle(client, p.EffectiveBandwidth())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		var total int
		for total < 16384 {
			n, err := server.Read(buf)
			total += n
			if err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := tc.Write(make([]byte, 16384)); err != nil {
		t.Fatal(err)
	}
	<-done
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("16 KB at 64 KB/s took only %v", elapsed)
	}
}
