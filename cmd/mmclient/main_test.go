package main

import (
	"context"
	"fmt"
	"net"
	"testing"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

// session boots an in-process system and returns a joined session.
func session(t *testing.T) (*client.Client, *client.Session, *workload.PopulatedRecord) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.Populate(m, "p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(m)
	t.Cleanup(func() { srv.Close() })
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c, err := client.NewOverDialer(func(context.Context) (net.Conn, error) { return cc, nil }, "tester", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s, _, err := c.Join("t", "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, rec
}

func TestExecuteCommands(t *testing.T) {
	c, s, rec := session(t)
	obj := rec.CTID
	commands := []string{
		"docs",
		"view",
		"tree",
		"choice ct segmented",
		"choice ct",
		"op ct zoom full",
		"opp ct segmentation segmented",
		fmt.Sprintf("text %d 5 5 note here", obj),
		fmt.Sprintf("line %d 0 0 9 9", obj),
		fmt.Sprintf("freeze %d", obj),
		fmt.Sprintf("release %d", obj),
		"bcast start",
		"bcast stop",
		"chat hello room",
		"save",
		"history",
	}
	for _, cmd := range commands {
		if err := execute(context.Background(), c, s, cmd); err != nil {
			t.Errorf("execute(%q): %v", cmd, err)
		}
	}
}

func TestExecuteDeleteAnnotation(t *testing.T) {
	c, s, rec := session(t)
	annID, err := s.AnnotateText(rec.CTID, 1, 1, "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := execute(context.Background(), c, s, fmt.Sprintf("del %d %d", rec.CTID, annID)); err != nil {
		t.Errorf("del: %v", err)
	}
}

func TestExecuteErrors(t *testing.T) {
	c, s, _ := session(t)
	bad := []string{
		"unknowncmd",
		"choice",
		"op ct zoom",
		"text 1 2",
		"text x 1 1 t",
		"line 1 2 3",
		"line x 0 0 1 1",
		"del 1",
		"del x y",
		"freeze",
		"freeze notanumber",
		"bcast",
		"bcast sideways",
		"choice nosuchvar value",
	}
	for _, cmd := range bad {
		if err := execute(context.Background(), c, s, cmd); err == nil {
			t.Errorf("execute(%q) accepted", cmd)
		}
	}
}
