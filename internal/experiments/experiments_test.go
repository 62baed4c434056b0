package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mmconf/internal/cpnet"
)

func TestFig2NetworkMatchesPaper(t *testing.T) {
	n, err := Fig2Network()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if opt.String() != "c1=c11 c2=c22 c3=c23 c4=c24 c5=c25" {
		t.Errorf("optimum = %v", opt)
	}
	// Brute force agrees with the sweep.
	brute, err := bruteForceOptimum(n)
	if err != nil {
		t.Fatal(err)
	}
	if brute.String() != opt.String() {
		t.Errorf("brute force %v != sweep %v", brute, opt)
	}
	// Constrained case: pinning c2=c12 flips c3.
	comp, _ := n.OptimalCompletion(cpnet.Outcome{"c2": "c12"})
	bcomp, err := bruteForceCompletion(n, cpnet.Outcome{"c2": "c12"})
	if err != nil {
		t.Fatal(err)
	}
	if comp.String() != bcomp.String() {
		t.Errorf("completion %v != brute %v", comp, bcomp)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	s := tb.String()
	if !strings.Contains(s, "EX: demo") || !strings.Contains(s, "note: a note") {
		t.Errorf("rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Errorf("lines = %d", len(lines))
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.5µs",
		2500 * time.Microsecond: "2.50ms",
		1500 * time.Millisecond: "1.500s",
	}
	for in, want := range cases {
		if got := fmtDur(in); got != want {
			t.Errorf("fmtDur(%v) = %s, want %s", in, got, want)
		}
	}
}

// A failing body ends the timed loop and its error comes back: one failed
// RPC is the experiment's error, not a panic that takes mmbench with it.
func TestTimeItReturnsBodyError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	d, err := timeIt(5, func() error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 || d != 0 {
		t.Errorf("timeIt = %v, %v after %d calls; want 0, boom after 3", d, err, calls)
	}
	if _, err := timeIt(5, func() error { return nil }); err != nil {
		t.Errorf("timeIt of a clean body = %v", err)
	}
}

// The experiment smoke tests run each generator once and sanity-check the
// output shape. They are the long-running end of the suite; -short skips
// the heavy ones.

func TestE2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E2OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
	// Speedup must be present and large for n=10.
	found := false
	for _, row := range tb.Rows {
		if row[0] == "11" && row[4] != "-" { // WideRecord(10) has 11 vars
			found = true
		}
	}
	if !found {
		t.Errorf("no brute-force comparison row: %v", tb.Rows)
	}
}

func TestE3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E3Reconfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestE4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E4Store(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestE5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A reduced run: just ensure one room size works through the harness.
	choice, chat, tput, err := propagationRun(4)
	if err != nil {
		t.Fatal(err)
	}
	if choice <= 0 || chat <= 0 || tput <= 0 {
		t.Errorf("degenerate measurements: %v %v %v", choice, chat, tput)
	}
}

func TestE6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E6MultiRes()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestE8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E8Prefetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestE9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E9Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestE1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E1Retrieve(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d:\n%s", len(tb.Rows), tb)
	}
}

func TestE7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E7Voice()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 6 {
		t.Errorf("rows = %d:\n%s", len(tb.Rows), tb)
	}
}

func TestE12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Shrunken run: tiny windows and a light control document keep this
	// in test-suite territory. The smoke test checks shape and that the
	// machinery holds together under -race, not the acceptance numbers —
	// those need the full windows (go run ./cmd/mmbench -only E12).
	tb, err := e12Overload(t.TempDir(), e12Params{
		MaxInflight:  2,
		QueueDepth:   16,
		QueueTimeout: 50 * time.Millisecond,
		RateHeadroom: 0.25,
		SLO:          500 * time.Millisecond,
		Conns:        4,
		CalibWorkers: 4,
		Calib:        150 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
		Run:          250 * time.Millisecond,
		Probes:       10,
		ProbeEvery:   20 * time.Millisecond,
		CtlDocParts:  50,
		StreamBytes:  192 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb)
	}
	// The protected series must have shed rather than queued without
	// bound: sheds at 3x come from the rate limiter and the bounded
	// queue doing their job.
	shed := tb.Rows[4][3]
	if shed == "0" || shed == "-" {
		t.Errorf("protected 3x shed nothing:\n%s", tb)
	}
}

// E15's claim worth guarding: on the slowest profile, the adaptive mode
// must beat static-high on time-to-presentable, and on the fastest the
// two modes must coincide (level=high changes nothing).
func TestE15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E15QoS()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb)
	}
	// Rows come in (static-high, adaptive) pairs per profile, slowest
	// first: dialup must improve, lan must be identical.
	if tb.Rows[0][3] == tb.Rows[1][3] {
		t.Errorf("dialup adaptive first-display did not improve: %v vs %v", tb.Rows[0], tb.Rows[1])
	}
	if tb.Rows[4][3] != tb.Rows[5][3] {
		t.Errorf("lan modes diverged: %v vs %v", tb.Rows[4], tb.Rows[5])
	}
}
