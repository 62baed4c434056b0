package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// baselineSchema versions the BENCH_9.json format.
const baselineSchema = "mmconf-bench-baseline/v1"

// Baseline is the committed benchmark baseline: the regression gate
// reads Benchmarks; Experiments carries the mmbench tables measured at
// the same commit for humans and later tooling.
type Baseline struct {
	Schema      string      `json:"schema"`
	Note        string      `json:"note,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	Experiments any         `json:"experiments,omitempty"`
}

// Benchmark is one aggregated `go test -bench` result. With -count > 1
// the per-metric values are medians across the repeats — the median is
// robust to the stray slow run that CI machines produce.
type Benchmark struct {
	// Name is the full benchmark id including sub-benchmark path and
	// GOMAXPROCS suffix (e.g. "BenchmarkE5FanOut/members=16-8").
	Name string `json:"name"`
	// Runs counts how many result lines were aggregated.
	Runs int `json:"runs"`
	// Iters is the median iteration count the runs settled on.
	Iters int64 `json:"iters"`
	// NsPerOp, BPerOp and AllocsPerOp are the gated metrics, each with
	// its own regression threshold. B/op and allocs/op are only gated
	// when the baseline recorded them (a benchmark without -benchmem
	// leaves them 0).
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// ParseBench reads `go test -bench` output, returning one aggregated
// Benchmark per name (medians across -count repeats). Non-benchmark
// lines (goos/pkg headers, PASS, ok) are ignored.
func ParseBench(r io.Reader) ([]Benchmark, error) {
	var raw []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			raw = append(raw, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Aggregate(raw), nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   1234   456.7 ns/op   48 B/op   0 allocs/op
//
// Reports ok=false for lines that start with "Benchmark" but are not
// results (e.g. a bare name printed before a sub-benchmark runs).
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: fields[0], Runs: 1, Iters: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("parsing %q: bad value %q", line, fields[i])
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp, seenNs = v, true
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	if !seenNs {
		return Benchmark{}, false, nil
	}
	return b, true, nil
}

// Aggregate folds repeated runs of the same benchmark into one record
// with median metrics, sorted by name for deterministic output.
// Already-aggregated inputs pass through (their Runs counts add up).
func Aggregate(in []Benchmark) []Benchmark {
	byName := make(map[string][]Benchmark)
	var names []string
	for _, b := range in {
		if _, ok := byName[b.Name]; !ok {
			names = append(names, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	sort.Strings(names)
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		runs := byName[name]
		agg := Benchmark{Name: name}
		var ns, bs, allocs []float64
		var iters []float64
		for _, r := range runs {
			agg.Runs += r.Runs
			ns = append(ns, r.NsPerOp)
			bs = append(bs, r.BPerOp)
			allocs = append(allocs, r.AllocsPerOp)
			iters = append(iters, float64(r.Iters))
		}
		agg.NsPerOp = median(ns)
		agg.BPerOp = median(bs)
		agg.AllocsPerOp = median(allocs)
		agg.Iters = int64(median(iters))
		out = append(out, agg)
	}
	return out
}

// median returns the middle value (mean of the middle two for even
// lengths). Empty input returns 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Delta is one baseline-vs-current comparison of a single metric.
type Delta struct {
	Name      string
	Metric    string  // "ns/op", "B/op" or "allocs/op"
	Base      float64 // baseline value
	Current   float64 // current value
	Percent   float64 // (current-base)/base * 100; + is worse
	Regressed bool
}

// Thresholds are the per-metric regression budgets in percent. A
// negative threshold disables that metric's gate (the delta is still
// reported).
type Thresholds struct {
	Ns, Bytes, Allocs float64
}

// Report is the outcome of a Compare run.
type Report struct {
	Deltas []Delta
	// Regressions are the deltas past their metric's threshold.
	Regressions []Delta
	// MissingCurrent lists baseline benchmarks absent from the current
	// run (a renamed or deleted benchmark silently escapes the gate, so
	// the report calls it out); NewCurrent lists benchmarks with no
	// baseline entry yet.
	MissingCurrent, NewCurrent []string
}

// Compare evaluates current results against the baseline per metric:
// ns/op always, B/op and allocs/op when the baseline recorded a
// nonzero value — so the gate covers memory traffic, not just latency,
// on the benchmarks that measure it.
func Compare(base, current []Benchmark, th Thresholds) *Report {
	rep := &Report{}
	cur := make(map[string]Benchmark, len(current))
	for _, b := range current {
		cur[b.Name] = b
	}
	seen := make(map[string]bool, len(base))
	for _, b := range base {
		seen[b.Name] = true
		c, ok := cur[b.Name]
		if !ok {
			rep.MissingCurrent = append(rep.MissingCurrent, b.Name)
			continue
		}
		rep.add(Delta{Name: b.Name, Metric: "ns/op", Base: b.NsPerOp, Current: c.NsPerOp}, th.Ns)
		if b.BPerOp > 0 {
			rep.add(Delta{Name: b.Name, Metric: "B/op", Base: b.BPerOp, Current: c.BPerOp}, th.Bytes)
		}
		if b.AllocsPerOp > 0 {
			rep.add(Delta{Name: b.Name, Metric: "allocs/op", Base: b.AllocsPerOp, Current: c.AllocsPerOp}, th.Allocs)
		}
	}
	for _, c := range current {
		if !seen[c.Name] {
			rep.NewCurrent = append(rep.NewCurrent, c.Name)
		}
	}
	sort.Strings(rep.MissingCurrent)
	sort.Strings(rep.NewCurrent)
	return rep
}

// add appends one metric delta, gating it against threshold pct.
func (r *Report) add(d Delta, pct float64) {
	if d.Base > 0 {
		d.Percent = (d.Current - d.Base) / d.Base * 100
	}
	d.Regressed = pct >= 0 && d.Percent > pct
	r.Deltas = append(r.Deltas, d)
	if d.Regressed {
		r.Regressions = append(r.Regressions, d)
	}
}

// String renders the report as an aligned table plus notes.
func (r *Report) String() string {
	var sb strings.Builder
	w := 0
	for _, d := range r.Deltas {
		if len(d.Name) > w {
			w = len(d.Name)
		}
	}
	for _, d := range r.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(&sb, "%-*s  %14.1f -> %14.1f %-9s  %+7.1f%%%s\n",
			w, d.Name, d.Base, d.Current, d.Metric, d.Percent, mark)
	}
	for _, name := range r.MissingCurrent {
		fmt.Fprintf(&sb, "missing from current run (baseline entry unchecked): %s\n", name)
	}
	for _, name := range r.NewCurrent {
		fmt.Fprintf(&sb, "new benchmark without baseline (run `benchgate update`): %s\n", name)
	}
	return sb.String()
}

// WriteBenchFmt renders benchmarks back into the standard `go test
// -bench` text format benchstat consumes.
func WriteBenchFmt(w io.Writer, benchmarks []Benchmark) error {
	for _, b := range benchmarks {
		iters := b.Iters
		if iters < 1 {
			iters = 1
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.1f ns/op\t%.0f B/op\t%.0f allocs/op\n",
			b.Name, iters, b.NsPerOp, b.BPerOp, b.AllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}
