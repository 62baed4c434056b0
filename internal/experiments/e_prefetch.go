package experiments

import (
	"fmt"
	"net"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/netsim"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/workload"
)

// E8Prefetch reproduces the §4.4 pre-fetching claim on the running system:
// a scripted consultation replayed through a real server and real client
// sessions (see consult) under each client buffer size and each buffering
// policy. A policy is a configuration of the system:
//   - none: the observer joins without a media buffer; push-prefetch is off;
//   - lru: the observer's buffer keeps what it fetched; push-prefetch is off;
//   - preference: the QoS loop also pushes the ranked candidates into it.
func E8Prefetch(workdir string) (*Table, error) {
	return e8Prefetch(workdir, nil)
}

// e8Prefetch is E8Prefetch with a look at each run's server, in row order,
// before it closes.
func e8Prefetch(workdir string, inspect func(*server.Server)) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Preference-based pre-fetching (§4.4, TR [12])",
		Columns: []string{"buffer", "policy", "hit-rate", "mean-response", "demand-KB", "prefetch-KB"},
	}
	m, rec, done, err := recordStore(workdir, "e8")
	if err != nil {
		return nil, err
	}
	defer done()
	script := workload.Session(rec.Doc, []string{"alice", "bob", "carol"}, 150, 11)
	link, err := netsim.NewLink(256<<10, 30*time.Millisecond)
	if err != nil {
		return nil, err
	}
	noPush := server.Options{QoSInterval: qosTick, PrefetchBudget: -1}
	for _, buffer := range []int64{64 << 10, 96 << 10, 128 << 10, 4 << 20} {
		for _, pol := range []struct {
			name   string
			buffer int64
			opts   server.Options
		}{
			{"none", 0, noPush},
			{"lru", buffer, noPush},
			{"preference", buffer, server.Options{QoSInterval: qosTick}},
		} {
			r, err := consult(m, rec.Doc.ID, consultation{
				opts: pol.opts, buffer: pol.buffer, link: link, script: script,
			}, inspect)
			if err != nil {
				return nil, fmt.Errorf("E8 %s at %d bytes: %w", pol.name, buffer, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dKiB", buffer>>10),
				pol.name,
				fmt.Sprintf("%.3f", r.hitRate()),
				fmtDur(r.meanResponse()),
				fmt.Sprint(r.demandBytes >> 10),
				fmt.Sprint(r.pushed >> 10),
			})
		}
	}
	t.Notes = append(t.Notes,
		"150 scripted choices by 3 viewers, replayed through a real server and client; an observing member fetches every visible stored payload after each presentation",
		"hits from the client's BufferStats; prefetch-KB is the server's qos.prefetch.bytes: pushes go only to members that joined with a buffer",
		"time is the 256 KiB/s, 30 ms link model applied to each fetch: its payload if it crossed the wire, the latency alone if the buffer answered; pushes are off the critical path")
	return t, nil
}

// qosTick is the QoS loop's control period in a replay: short, so the
// replay waits little for the loop to go quiet.
const qosTick = 2 * time.Millisecond

// consultation is one replay's configuration.
type consultation struct {
	opts   server.Options
	buffer int64        // the observer's media buffer; 0 joins without one
	link   *netsim.Link // prices each fetch
	// pins are choices made before the first display (E15 pins the
	// bandwidth level); script is replayed after it.
	pins, script []workload.Choice
}

// consulted is what one replay measured.
type consulted struct {
	demands, hits int64
	first, total  time.Duration // the first display's time, every display's
	demandBytes   int64         // payload bytes the observer's fetches moved
	pushed        int64         // the server's qos.prefetch.bytes
}

func (r consulted) hitRate() float64 {
	if r.demands == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.demands)
}

func (r consulted) meanResponse() time.Duration {
	if r.demands == 0 {
		return 0
	}
	return r.total / time.Duration(r.demands)
}

// consult replays a consultation through a real server over loopback TCP.
// Each of the script's viewers is a client that joins without a buffer
// and makes its choices; one more member, the observer, joins with
// c.buffer. After each choice the observer waits for the presentation
// that choice caused, lets the QoS loop go quiet when it pushes (so a
// push lands before the display, off the critical path), and displays
// its view. inspect, when set, sees the server before it closes.
func consult(m *mediadb.MediaDB, docID string, c consultation, inspect func(*server.Server)) (consulted, error) {
	var r consulted
	srv, err := server.NewWith(m, c.opts)
	if err != nil {
		return r, err
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	const roomName = "consult"
	observer, err := client.Dial(addr, "observer")
	if err != nil {
		return r, err
	}
	defer observer.Close()
	view, _, err := observer.Join(roomName, docID, c.buffer)
	if err != nil {
		return r, err
	}
	viewers := make(map[string]*client.Session)
	for _, chs := range [][]workload.Choice{c.pins, c.script} {
		for _, ch := range chs {
			if viewers[ch.Viewer] != nil {
				continue
			}
			vc, err := client.Dial(addr, ch.Viewer)
			if err != nil {
				return r, err
			}
			defer vc.Close()
			if viewers[ch.Viewer], _, err = vc.Join(roomName, docID, 0); err != nil {
				return r, err
			}
		}
	}
	choose := func(ch workload.Choice) error {
		if err := viewers[ch.Viewer].Choice(ch.Variable, ch.Value); err != nil {
			return err
		}
		return awaitPresentation(observer, ch)
	}
	show := func(window time.Duration) error {
		if c.opts.PrefetchBudget >= 0 {
			if err := settle(observer, window); err != nil {
				return err
			}
		}
		return r.display(observer, view, c.link)
	}
	for _, ch := range c.pins {
		if err := choose(ch); err != nil {
			return r, err
		}
	}
	// The first window is long: the loop's first tick for the members
	// that just joined must have run.
	if err := show(25 * qosTick); err != nil {
		return r, err
	}
	r.first = r.total
	for _, ch := range c.script {
		if err := choose(ch); err != nil {
			return r, err
		}
		if err := show(2 * qosTick); err != nil {
			return r, err
		}
	}
	st, err := observer.Stats()
	if err != nil {
		return r, err
	}
	r.pushed = int64(st.Counters[server.CounterQoSPrefetchBytes])
	if inspect != nil {
		inspect(srv)
	}
	return r, nil
}

// awaitPresentation reads the observer's events up to the presentation
// that follows ch's choice event.
func awaitPresentation(c *client.Client, ch workload.Choice) error {
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	var choiceSeq uint64
	for {
		select {
		case ev := <-c.Events():
			switch {
			case choiceSeq == 0 && ev.Kind == room.EvChoice && ev.Actor == ch.Viewer &&
				ev.Variable == ch.Variable && ev.Value == ch.Value:
				choiceSeq = ev.Seq
			case choiceSeq != 0 && ev.Kind == room.EvPresentation && ev.Seq > choiceSeq:
				return nil
			}
		case <-timeout.C:
			return fmt.Errorf("no presentation after %s's choice %s=%s", ch.Viewer, ch.Variable, ch.Value)
		}
	}
}

// settle waits until the server's prefetch counter, read over the
// observer's own connection, stays put across window. A push is counted
// after it is queued on its connection, so every push the last answer
// counts for the observer arrived ahead of that answer and is filed in
// its buffer.
func settle(c *client.Client, window time.Duration) error {
	last := ^uint64(0)
	for {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		n := st.Counters[server.CounterQoSPrefetchBytes]
		if n == last {
			return nil
		}
		last = n
		time.Sleep(window)
	}
}

// display fetches every visible stored payload of the observer's view and
// prices each fetch on the link: the payload if it crossed the wire, the
// latency alone if the buffer answered.
func (r *consulted) display(c *client.Client, s *client.Session, link *netsim.Link) error {
	v := s.View()
	for _, comp := range s.Doc.Components() {
		if comp.Composite() || !v.Visible[comp.Name] {
			continue
		}
		p, err := comp.Presentation(v.Outcome[comp.Name])
		if err != nil || p.ObjectID == 0 {
			continue
		}
		hits := c.BufferStats().Hits
		n, stored, err := fetchPayload(c, p)
		if err != nil {
			return fmt.Errorf("%s=%s: %w", comp.Name, p.Name, err)
		}
		if !stored {
			continue
		}
		r.demands++
		if c.BufferStats().Hits > hits {
			r.hits++
			n = 0
		}
		r.demandBytes += int64(n)
		r.total += link.TransferTime(int64(n))
	}
	return nil
}

// fetchPayload fetches a presentation's payload the way its table says —
// an image, an audio object, a stream at the layers its kind shows — and
// returns the payload's size; stored is false for a kind no table holds.
func fetchPayload(c *client.Client, p document.Presentation) (n int, stored bool, err error) {
	switch mediadb.KindTable(p.Kind) {
	case mediadb.ImageTable:
		data, err := c.GetImageBytes(p.ObjectID)
		return len(data), true, err
	case mediadb.AudioTable:
		pcm, _, _, err := c.GetAudio(p.ObjectID)
		return len(pcm), true, err
	case mediadb.CmpTable:
		_, n, err := c.GetCmp(p.ObjectID, streamLayers[p.Kind])
		return n, true, err
	}
	return 0, false, nil
}

// streamLayers is the layer count a stream presentation shows (absent:
// all). Only a whole stream goes through the media buffer.
var streamLayers = map[document.MediaKind]int{
	document.KindImageLowRes: 1,
	document.KindImageMedRes: 2,
}
