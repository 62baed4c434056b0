// Command benchmark is the repository's end-to-end benchmark: it hosts
// the conferencing system in its own process, drives it with two
// closed-loop clients on one of five workloads, checks every output,
// and reports end-to-end metrics (or, with -trace 1, per-layer metrics
// and a span file). See README.md.
//
//	go -C benchmark run . -workload conf_choice -seed 1 -seconds 15 -trace 0
//	go -C benchmark run .                        # all five workloads, traced
//	go -C benchmark run . compare old.json new.json
//	go -C benchmark run . spec > BENCHMARK.json  # the driver's declaration
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// meta describes the conditions of a run; it is written into every
// result file.
type meta struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Transport  string `json:"transport"`
	Store      string `json:"store"`
	Load       string `json:"load"`
}

// resultFile is what -out writes and `compare` reads.
type resultFile struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newMeta(seed int64, seconds int, smoke bool) meta {
	return meta{
		Seed: seed, Seconds: seconds, Smoke: smoke,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:  cpuModel(),
		Transport: "loopback TCP (cluster nodes and their links: loopback TCP through netsim fault wrappers, no faults injected)",
		Store:     "temp-dir store under benchmark/.tmp, SyncGroup WAL (cluster harness nodes: SyncNever)",
		Load:      fmt.Sprintf("closed loop, %d drivers, zero think time", numDrivers),
	}
}

func main() {
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		os.Exit(compareMain(os.Args[2:]))
	case len(os.Args) > 1 && os.Args[1] == "spec":
		os.Stdout.Write(benchmarkJSON())
	default:
		os.Exit(runMain(os.Args[1:]))
	}
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all five, one after another)")
	seed := fs.Int64("seed", 1, "seed for object contents, scripts and operation choice")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per workload, cut into ten windows")
	trace := fs.Int("trace", -1, "0: report end-to-end metrics; 1: also run the layer probes and the traced pass and report per-layer metrics (default: 0 with -workload, 1 without)")
	smoke := fs.Bool("smoke", false, "0.15 s windows, one set-up, short probes: checks the benchmark itself, measures nothing")
	out := fs.String("out", "", "result file (default out/last.json, or out/last-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
		if *trace < 0 {
			*trace = 1
		}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	cfg := newRunConfig(*seed, *seconds, *trace == 1, *smoke)
	file := resultFile{Meta: newMeta(*seed, *seconds, *smoke), Workloads: make(map[string]*result)}
	ok := true
	var last *result
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		file.Workloads[name] = res
		printResult(os.Stdout, res)
		ok = ok && res.Correct
		last = res
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "last.json")
		if *workload != "" {
			path = filepath.Join(cfg.outDir, "last-"+*workload+".json")
		}
	}
	if err := writeResultFile(path, &file); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with the run's verdict and metrics.
		printDriverLine(os.Stdout, last, cfg.trace)
	}
	if !ok {
		return 1
	}
	return 0
}

func writeResultFile(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult is the human-readable report: every metric by name with
// its unit, the sample count, and the min-max of its windows.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed, %d timed samples, correct=%v\n",
		res.Workload, res.Attempted, res.Failed, res.Samples, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
	for _, s := range endToEndSpecs {
		v := res.EndToEnd[s.Name]
		fmt.Fprintf(w, "   %-18s %14.6g %-6s", s.Name, v.Value, v.Unit)
		if len(v.Windows) > 1 {
			lo, hi := minMax(v.Windows)
			fmt.Fprintf(w, " windows %.6g..%.6g (spread %.1f%%, bound %.1f%%)", lo, hi, 100*ratio(hi-lo, v.Value), 100*s.Bound)
		}
		if v.Raw != 0 {
			fmt.Fprintf(w, ", as measured %.6g", v.Raw)
		}
		fmt.Fprintln(w)
	}
	lo, hi := minMax(res.HostSlowdown.Windows)
	fmt.Fprintf(w, "   %-18s %14.6g %-6s windows %.6g..%.6g: reference kernel time over nominal; the four time-based metrics are per window at nominal host speed\n",
		"host slowdown", res.HostSlowdown.Value, res.HostSlowdown.Unit, lo, hi)
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "   -- per layer (0: not exercised by this workload)\n")
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := res.PerLayer[name]; v.Value != 0 && !strings.HasPrefix(name, "trace.") {
			fmt.Fprintf(w, "   %-40s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "   -- traced pass: mean self time per operation, by layer\n")
	sum := res.PerLayer["trace.residue_us"].Value
	for _, l := range traceLayers {
		v := res.PerLayer["trace.self_us."+l].Value
		sum += v
		if v != 0 {
			fmt.Fprintf(w, "   %-40s %14.6g us\n", l, v)
		}
	}
	fmt.Fprintf(w, "   %-40s %14.6g us\n", "residue (transport and scheduling)", res.PerLayer["trace.residue_us"].Value)
	fmt.Fprintf(w, "   %-40s %14.6g us (layers + residue = %.6g; %.1f%% of spans overrun by their replayed children)\n", "root, mean",
		res.PerLayer["trace.root_mean_us"].Value, sum, 100*res.PerLayer["trace.overrun_share"].Value)
	fmt.Fprintf(w, "   %-40s %14.6g us (untraced op_p50 as measured %.6g us: traced - untraced = %.6g us)\n", "root, median",
		res.PerLayer["trace.root_p50_us"].Value, 1e3*res.EndToEnd["op_p50_ms"].Raw, res.PerLayer["trace.overhead_us"].Value)
}

// printDriverLine prints the one-line JSON verdict: end-to-end metrics
// without tracing, per-layer metrics with it.
func printDriverLine(w io.Writer, res *result, traced bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	metrics := make(map[string]metric, len(src))
	for name, v := range src {
		metrics[name] = metric{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
