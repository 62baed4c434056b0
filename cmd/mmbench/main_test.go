package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmconf/internal/experiments"
)

// runIn runs the command with TMPDIR pointed at a directory of the test's
// own and reports what it left there.
func runIn(t *testing.T, args ...string) (code int, stdout, stderr string, left []string) {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	left, err := filepath.Glob(filepath.Join(tmp, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errOut.String(), left
}

func TestList(t *testing.T) {
	code, stdout, _, _ := runIn(t, "-list")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if code != 0 || len(lines) != 11 || !strings.HasPrefix(lines[0], "E1 ") || !strings.HasPrefix(lines[10], "E15 ") {
		t.Errorf("-list exits %d with %d lines:\n%s", code, len(lines), stdout)
	}
}

func TestOnlyJSON(t *testing.T) {
	code, stdout, stderr, left := runIn(t, "-only", "e2", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var results []struct {
		ID      string
		Rows    [][]string
		Seconds float64 `json:"seconds"`
	}
	if err := json.Unmarshal([]byte(stdout), &results); err != nil {
		t.Fatalf("%v in:\n%s", err, stdout)
	}
	if len(results) != 1 || results[0].ID != "E2" || len(results[0].Rows) == 0 || results[0].Seconds <= 0 {
		t.Errorf("results = %+v", results)
	}
	if len(left) != 0 {
		t.Errorf("the run left %v behind", left)
	}
}

// An id the table does not have (the index is E1–E9, E12 and E15: no E13)
// is a refused command line, not an empty run that exits 0.
func TestUnknownID(t *testing.T) {
	for _, only := range []string{"E99", "E13", "E2,E10", "E2,"} {
		code, stdout, stderr, left := runIn(t, "-only", only)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "the ids are E1, E2, E3, E4, E5, E6, E7, E8, E9, E12, E15\n") {
			t.Errorf("-only %s exits %d, stdout %q, stderr %q", only, code, stdout, stderr)
		}
		if len(left) != 0 {
			t.Errorf("-only %s left %v behind", only, left)
		}
	}
}

// A failed experiment exits 1 after the experiments behind it have run
// and the work directory is gone.
func TestFailureCleansUp(t *testing.T) {
	saved := all
	t.Cleanup(func() { all = saved })
	var workdir string
	all = []experiment{
		{"E1", "fails after writing to the work directory", func(dir string) (*experiments.Table, error) {
			workdir = dir
			if err := os.WriteFile(filepath.Join(dir, "store"), []byte("x"), 0o600); err != nil {
				return nil, err
			}
			return nil, errors.New("forced")
		}},
		{"E2", "still runs", func(string) (*experiments.Table, error) {
			return &experiments.Table{ID: "E2", Title: "after the failure"}, nil
		}},
	}
	code, stdout, stderr, left := runIn(t)
	if code != 1 || !strings.Contains(stderr, "E1 failed: forced") || !strings.Contains(stdout, "after the failure") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if workdir == "" || len(left) != 0 {
		t.Errorf("work directory %q; left behind: %v", workdir, left)
	}
}
