// Command mmbench regenerates every experiment table of EXPERIMENTS.md:
// one experiment per figure of the paper (see DESIGN.md §4 for the map).
//
// Usage:
//
//	mmbench                       # run everything
//	mmbench -only E2,E8           # run a subset
//	mmbench -list                 # show the experiment index
//	mmbench -json -o tables.json  # machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mmconf/internal/experiments"
)

type experiment struct {
	id    string
	title string
	run   func(workdir string) (*experiments.Table, error)
}

// jsonResult is one experiment's machine-readable record.
type jsonResult struct {
	*experiments.Table
	Seconds float64 `json:"seconds"`
}

// all is the experiment index, in the order EXPERIMENTS.md presents it.
var all = []experiment{
	{"E1", "end-to-end document retrieval (Fig. 1, 3, 4)",
		experiments.E1Retrieve},
	{"E2", "CP-net optimal configuration (Fig. 2)",
		func(string) (*experiments.Table, error) { return experiments.E2OptimalOutcome() }},
	{"E3", "dynamic reconfiguration latency (Fig. 5)",
		func(string) (*experiments.Table, error) { return experiments.E3Reconfig() }},
	{"E4", "object store throughput and durability (Fig. 6, 7)",
		experiments.E4Store},
	{"E5", "room change propagation (Fig. 8)",
		func(string) (*experiments.Table, error) { return experiments.E5Propagation() }},
	{"E6", "multi-resolution image transfer (Fig. 9)",
		func(string) (*experiments.Table, error) { return experiments.E6MultiRes() }},
	{"E7", "voice processing accuracy (Fig. 10)",
		func(string) (*experiments.Table, error) { return experiments.E7Voice() }},
	{"E8", "preference-based pre-fetching (§4.4)",
		func(string) (*experiments.Table, error) { return experiments.E8Prefetch() }},
	{"E9", "online CP-net update cost (§4.2)",
		func(string) (*experiments.Table, error) { return experiments.E9Update() }},
	{"E12", "goodput under overload: admission control vs unprotected",
		experiments.E12Overload},
	{"E15", "adaptive QoS: bandwidth-tuned degradation vs static-high (§4.4)",
		func(string) (*experiments.Table, error) { return experiments.E15QoS() }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, so that its deferred clean-up — the temporary
// stores under the work directory above all — happens before the process
// exits with the code run returns: 0, 1 when an experiment or the output
// failed, 2 for a command line it refuses.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "emit results as a JSON array instead of rendered tables")
	out := fs.String("o", "", "write output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-3s %s\n", e.id, e.title)
		}
		return 0
	}

	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.id
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !slices.Contains(valid, id) {
				fmt.Fprintf(stderr, "mmbench: no experiment %q; the ids are %s\n", id, strings.Join(valid, ", "))
				return 2
			}
			selected[id] = true
		}
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "mmbench: %v\n", err)
			return 1
		}
		defer f.Close()
		dst = f
	}

	workdir, err := os.MkdirTemp("", "mmbench-*")
	if err != nil {
		fmt.Fprintf(stderr, "mmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	var results []jsonResult
	code := 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		table, err := e.run(workdir)
		if err != nil {
			fmt.Fprintf(stderr, "mmbench: %s failed: %v\n", e.id, err)
			code = 1
			continue
		}
		elapsed := time.Since(start)
		if *asJSON {
			results = append(results, jsonResult{Table: table, Seconds: elapsed.Seconds()})
			fmt.Fprintf(stderr, "mmbench: %s completed in %v\n", e.id, elapsed.Round(time.Millisecond))
			continue
		}
		fmt.Fprintln(dst, table)
		fmt.Fprintf(dst, "(%s completed in %v)\n\n", e.id, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(dst)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "mmbench: %v\n", err)
			code = 1
		}
	}
	return code
}
