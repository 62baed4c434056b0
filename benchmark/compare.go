package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdicts of one (end-to-end metric, workload) row.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// worse returns by what share of old's value new is worse (negative:
// better), in the metric's own direction.
func worse(s metricSpec, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// separated reports whether every window of one side beats every window
// of the other.
func separated(old, new []float64) bool {
	oldLo, oldHi := minMax(old)
	newLo, newHi := minMax(new)
	return newHi < oldLo || newLo > oldHi
}

func spread(v value) float64 {
	if len(v.Windows) < 2 {
		return 0
	}
	lo, hi := minMax(v.Windows)
	return ratio(hi-lo, v.Value)
}

// judge applies the benchmark's own rule: a difference beyond the bound
// is a regression or an improvement; but when either side's window
// spread is wider than the bound the medians cannot be trusted and the
// row is unresolved, unless every window of one side beats every window
// of the other.
func judge(s metricSpec, old, new value) (string, float64) {
	w := worse(s, old.Value, new.Value)
	if (spread(old) > s.Bound || spread(new) > s.Bound) && !separated(old.Windows, new.Windows) {
		return vUnresolved, w
	}
	switch {
	case w > s.Bound:
		return vRegressed, w
	case w < -s.Bound:
		return vImproved, w
	}
	return vUnchanged, w
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints one row per (end-to-end metric, workload) and
// returns non-zero on any regression or any rise in the failed share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare old.json new.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		var err error
		if files[i], err = readResultFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}
	return compareFiles(os.Stdout, files[0], files[1])
}

func compareFiles(w *os.File, old, newer *resultFile) int {
	bad := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, ws := range workloadSpecs {
		o, n := old.Workloads[ws.Name], newer.Workloads[ws.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-15s missing from %s\n", ws.Name, map[bool]string{true: "old", false: "new"}[o == nil])
			bad++
			continue
		}
		for _, s := range endToEndSpecs {
			verdict, by := judge(s, o.EndToEnd[s.Name], n.EndToEnd[s.Name])
			if s.Name == "ok_share" && n.EndToEnd[s.Name].Value < o.EndToEnd[s.Name].Value {
				verdict = vRegressed // any rise in the failed share
			}
			if verdict == vRegressed {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", ws.Name, s.Name,
				o.EndToEnd[s.Name].Value, n.EndToEnd[s.Name].Value, 100*by, 100*s.Bound, verdict)
		}
		if !n.Correct {
			fmt.Fprintf(w, "%-15s new run failed its correctness checks\n", ws.Name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d rows regressed, failed or missing\n", bad)
		return 1
	}
	return 0
}
