// Command benchgate maintains the repository's benchmark baseline
// (BENCH_9.json) and gates CI on performance regressions against it.
//
// The baseline is a JSON document holding the key `go test -bench`
// results (ns/op, B/op, allocs/op — medians across -count repeats) plus
// the mmbench experiment tables (`cmd/mmbench -json`) measured at the
// same commit. CI re-runs the benchmarks, prints a human-readable
// benchstat comparison (via the fmt subcommand), and fails the build
// when any gated metric regresses past its threshold: ns/op always,
// B/op and allocs/op wherever the baseline recorded them — so the wire
// v2 bytes/alloc wins cannot silently erode.
//
// Usage:
//
//	go test -run '^$' -bench ... -count=5 | benchgate update -o BENCH_9.json -experiments exp.json
//	go test -run '^$' -bench ... -count=5 | benchgate check -baseline BENCH_9.json -max-regress 25 -max-regress-bytes 20 -max-regress-allocs 20
//	benchgate fmt -baseline BENCH_9.json > baseline.txt   # feed benchstat
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "update":
		err = cmdUpdate(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchgate update|check|fmt [flags] [bench-output files...]")
	os.Exit(2)
}

// readBench parses benchmark output from the file args, or stdin when
// none are given.
func readBench(args []string) ([]Benchmark, error) {
	if len(args) == 0 {
		return ParseBench(os.Stdin)
	}
	var all []Benchmark
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		bs, err := ParseBench(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, bs...)
	}
	return Aggregate(all), nil
}

func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	out := fs.String("o", "BENCH_9.json", "baseline file to write")
	expFile := fs.String("experiments", "", "mmbench -json output to embed (optional)")
	note := fs.String("note", "", "free-form note recorded in the baseline (e.g. benchtime)")
	fs.Parse(args)
	benchmarks, err := readBench(fs.Args())
	if err != nil {
		return err
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	base := &Baseline{Schema: baselineSchema, Note: *note, Benchmarks: benchmarks}
	if *expFile != "" {
		raw, err := os.ReadFile(*expFile)
		if err != nil {
			return err
		}
		// Keep the experiment tables verbatim: the baseline stores them
		// for humans and later tooling, the gate only reads Benchmarks.
		if err := json.Unmarshal(raw, &base.Experiments); err != nil {
			return fmt.Errorf("%s: %w", *expFile, err)
		}
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	baseFile := fs.String("baseline", "BENCH_9.json", "baseline file to compare against")
	maxRegress := fs.Float64("max-regress", 25, "fail when ns/op regresses more than this percentage")
	maxBytes := fs.Float64("max-regress-bytes", 20, "fail when B/op regresses more than this percentage (negative: report only)")
	maxAllocs := fs.Float64("max-regress-allocs", 20, "fail when allocs/op regresses more than this percentage (negative: report only)")
	fs.Parse(args)
	base, err := LoadBaseline(*baseFile)
	if err != nil {
		return err
	}
	current, err := readBench(fs.Args())
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	report := Compare(base.Benchmarks, current, Thresholds{Ns: *maxRegress, Bytes: *maxBytes, Allocs: *maxAllocs})
	fmt.Print(report.String())
	if len(report.Regressions) > 0 {
		return fmt.Errorf("%d metric(s) regressed past their threshold", len(report.Regressions))
	}
	return nil
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	baseFile := fs.String("baseline", "BENCH_9.json", "baseline file to render")
	fs.Parse(args)
	base, err := LoadBaseline(*baseFile)
	if err != nil {
		return err
	}
	return WriteBenchFmt(os.Stdout, base.Benchmarks)
}

// LoadBaseline reads and validates a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != baselineSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, base.Schema, baselineSchema)
	}
	return &base, nil
}
