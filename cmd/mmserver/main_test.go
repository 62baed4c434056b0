package main

import (
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmconf/internal/mediadb"
	"mmconf/internal/server"
	"mmconf/internal/store"
)

func TestRunRejectsBadSyncMode(t *testing.T) {
	if err := run("127.0.0.1:0", t.TempDir(), 0, "sometimes", "", server.Options{}, clusterConfig{}); err == nil {
		t.Fatal("bad sync mode accepted")
	}
}

func TestRunRejectsBadDebugAddr(t *testing.T) {
	// The main listener binds fine; the debug listener's bad address must
	// fail the run before serving starts.
	if err := run("127.0.0.1:0", t.TempDir(), 0, "never", "999.999.999.999:99999", server.Options{}, clusterConfig{}); err == nil {
		t.Fatal("bad debug address accepted")
	}
}

// parse reads a command line as main does, but returns the flag
// package's error instead of exiting.
func parse(args ...string) (config, error) {
	var c config
	fs := c.flags()
	fs.Init("mmserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return c, fs.Parse(args)
}

func TestRunRejectsBadOptions(t *testing.T) {
	// Flag values flow into server.Options; nonsense must fail run with
	// the validation error naming the field, not start a misconfigured
	// server, and before run opens (or seeds) the database.
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-peer-rate", "-1"}, "PerPeerRate"},
		{[]string{"-queue-timeout", "-1s"}, "QueueTimeout"},
		{[]string{"-qos-interval", "-1s"}, "QoSInterval"},
	} {
		c, err := parse(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		data := filepath.Join(t.TempDir(), "D")
		err = run("127.0.0.1:0", data, 2, "never", "", c.opts, clusterConfig{})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%v: run = %v, want a refusal naming %s", tc.args, err, tc.field)
		}
		if _, err := os.Stat(data); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%v: the refused run left %s behind (stat: %v), want no database", tc.args, data, err)
		}
	}
	// The member queue budget is a constant: its flag is gone.
	if _, err := parse("-push-budget", "1"); err == nil || !strings.Contains(err.Error(), "push-budget") {
		t.Errorf("-push-budget: %v, want an unknown flag", err)
	}
}

// TestFlagSet pins the command line: fifteen flags, each with a caller.
func TestFlagSet(t *testing.T) {
	var c config
	n := 0
	c.flags().VisitAll(func(*flag.Flag) { n++ })
	if n != 15 {
		t.Fatalf("mmserver defines %d flags, want 15", n)
	}
}

func TestRunPopulatesEmptyDatabase(t *testing.T) {
	dir := t.TempDir()
	// An unlistenable address makes run return right after the populate
	// phase, leaving the seeded database behind for inspection.
	err := run("999.999.999.999:99999", dir, 2, "never", "", server.Options{}, clusterConfig{})
	if err == nil {
		t.Fatal("invalid listen address accepted")
	}
	db, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := m.ListDocuments()
	if err != nil || len(ids) != 2 {
		t.Fatalf("seeded documents = %v, %v; want 2", ids, err)
	}
	// A second run against the same data dir must not duplicate records
	// (it only seeds when empty).
	if err := run("999.999.999.999:99999", dir, 2, "never", "", server.Options{}, clusterConfig{}); err == nil {
		t.Fatal("invalid listen address accepted on rerun")
	}
	db2, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2, err := mediadb.Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := m2.ListDocuments()
	if err != nil || len(ids2) != 2 {
		t.Fatalf("documents after rerun = %v, %v; want 2 (no reseeding)", ids2, err)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n2=host2:7070, n3=host3:7070")
	if err != nil || len(peers) != 2 || peers["n2"] != "host2:7070" || peers["n3"] != "host3:7070" {
		t.Fatalf("parsePeers = %v, %v", peers, err)
	}
	for _, bad := range []string{"n2", "n2=", "=addr", "n2=a,n2=b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestRunClusterNode(t *testing.T) {
	// A single-node "cluster" (no peers) must come up through the cluster
	// construction path; a bad sync mode must still fail first.
	cl := clusterConfig{id: "n1", peers: map[string]string{}}
	if err := run("127.0.0.1:0", t.TempDir(), 0, "sometimes", "", server.Options{}, cl); err == nil {
		t.Fatal("bad sync mode accepted on cluster path")
	}
	if err := run("999.999.999.999:99999", t.TempDir(), 0, "never", "", server.Options{}, cl); err == nil {
		t.Fatal("invalid listen address accepted on cluster path")
	}
}
