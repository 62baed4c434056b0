package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs every workload in smoke mode and checks that the
// benchmark's own checks pass and that what it prints is exactly what
// BENCHMARK.json declares, name by name and unit by unit.
func TestSmoke(t *testing.T) {
	start := time.Now()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go -C benchmark run . spec > BENCHMARK.json`")
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	cfg := newRunConfig(1, runSeconds, true, true)
	cfg.outDir = t.TempDir()
	for _, w := range decl.Workloads {
		res, err := runWorkload(w.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: correctness checks failed: %v", w.Name, res.Errors)
		}
		for _, traced := range []bool{false, true} {
			var line bytes.Buffer
			printDriverLine(&line, res, traced)
			var printed struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &printed); err != nil {
				t.Fatalf("%s: driver line: %v", w.Name, err)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): printed %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s declared but not printed", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s printed in %q, declared in %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
				}
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	if took := time.Since(start); took > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 15s", took)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	v := func(ws ...float64) value { return windowed("x", ws) }
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		old, new value
		want     string
	}{
		{"same", lower, v(1, 1.01, 1.02), v(1.01, 1.02, 1.03), vUnchanged},
		{"slower beyond bound", lower, v(1, 1.01, 1.02), v(1.2, 1.21, 1.22), vRegressed},
		{"faster beyond bound", lower, v(1, 1.01, 1.02), v(0.8, 0.81, 0.82), vImproved},
		{"noisy and overlapping", lower, v(1, 1.2, 1.4), v(1.1, 1.3, 1.5), vUnresolved},
		{"noisy but separated", lower, v(1, 1.2, 1.4), v(0.5, 0.6, 0.7), vImproved},
		{"noisy and separated the wrong way", lower, v(1, 1.2, 1.4), v(2, 2.3, 2.6), vRegressed},
		{"noisy, separated, but within the bound", lower, v(1, 1.06, 1.12), v(1.13, 1.14, 1.15), vUnchanged},
		{"throughput fell", higher, v(100, 101, 102), v(80, 81, 82), vRegressed},
		{"throughput rose", higher, v(100, 101, 102), v(120, 121, 122), vImproved},
	} {
		if got, _ := judge(tc.spec, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAtHostSpeed: a host running everything 1.25x slower in some windows
// must read the same as the quiet host, time or rate, while Raw keeps the
// value as measured; a window without kernel samples takes the run's
// median slowdown.
func TestAtHostSpeed(t *testing.T) {
	slowdown := []float64{1, 1.25, 1, 1.25, 1.25}
	times := []float64{2, 2.5, 2, 2.5, 2.5}
	rates := []float64{100, 80, 100, 80, 80}
	if v := atHostSpeed("ms", times, slowdown, false); v.Value != 2 || v.Raw != 2.5 {
		t.Errorf("time: value %v raw %v, want 2 and 2.5", v.Value, v.Raw)
	}
	if v := atHostSpeed("1/s", rates, slowdown, true); v.Value != 100 || v.Raw != 80 {
		t.Errorf("rate: value %v raw %v, want 100 and 80", v.Value, v.Raw)
	}

	rec := newRecorder()
	rec.phase.Store(0)
	rec.recordKernel(0, refKernelNominal)
	rec.recordKernel(1, 2*refKernelNominal)
	rec.recordKernel(1, 3*refKernelNominal)
	got := rec.hostSlowdown()
	if got[0] != 2 || got[1] != 2 {
		t.Errorf("slowdown of the sampled window %v and of an empty one %v, want 2 and 2", got[0], got[1])
	}

	k := newRefKernel()
	k.run()
	first := append([]int(nil), k.buf...)
	k.run()
	if !sort.IntsAreSorted(k.buf) || !reflect.DeepEqual(first, k.buf) {
		t.Error("reference kernel: runs differ or leave the buffer unsorted")
	}
}
