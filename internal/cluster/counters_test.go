package cluster

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"mmconf/internal/server"
)

// TestNodeCountersAreTheDesignTable: a fresh node's server reports
// exactly the counters DESIGN.md's table lists (§7, "### Counters"): a
// plain server's, which internal/server checks the same way, and the
// node's own dataset counters.
func TestNodeCountersAreTheDesignTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Counters\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### Counters\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	want := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)` \\|").FindAllStringSubmatch(section, -1) {
		want[m[1]] = true
	}
	n, err := New(openTestMedia(t), server.Options{}, Config{ID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	got := n.Server().MetricsSnapshot().Counters
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("DESIGN.md lists %s; a fresh node does not report it", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("a fresh node reports %s; DESIGN.md's counter table does not list it", name)
		}
	}
}
