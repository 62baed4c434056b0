package experiments

import (
	"fmt"
	"net"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/netsim"
	"mmconf/internal/server"
)

// E1Retrieve measures the full architecture of Fig. 1/3/4 end to end: a
// client fetching the document catalog, a document with its optimal
// presentation, and each class of multimedia object from the interaction
// server over real TCP, with modeled WAN costs alongside.
func E1Retrieve(workdir string) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "End-to-end document retrieval (Fig. 1, 3, 4)",
		Columns: []string{"operation", "payload", "LAN-latency", "@128KiB/s", "@1MiB/s"},
	}
	m, rec, done, err := recordStore(workdir, "p1")
	if err != nil {
		return nil, err
	}
	defer done()
	srv := server.New(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := client.Dial(l.Addr().String(), "alice")
	if err != nil {
		return nil, err
	}
	defer c.Close()

	slow, _ := netsim.NewLink(128<<10, 40*time.Millisecond)
	fast, _ := netsim.NewLink(1<<20, 10*time.Millisecond)
	row := func(op string, payload int, lan time.Duration) {
		t.Rows = append(t.Rows, []string{
			op, fmt.Sprintf("%dKiB", payload>>10), fmtDur(lan),
			fmtDur(slow.TransferTime(int64(payload))),
			fmtDur(fast.TransferTime(int64(payload))),
		})
	}

	// Each fetch is timed over reps round trips and reports its payload
	// size; the first failed call is the experiment's error.
	const reps = 20
	var docBytes int
	for _, fetch := range []struct {
		op   string
		call func() (payload int, err error)
	}{
		{"list documents", func() (int, error) {
			_, _, err := c.ListDocuments()
			return 64, err
		}},
		{"get document + CP-net", func() (int, error) {
			doc, err := c.GetDocument("p1")
			if err != nil {
				return 0, err
			}
			data, _ := doc.MarshalBinary()
			docBytes = len(data)
			return docBytes, nil
		}},
		{"get CT image (flat)", func() (int, error) {
			img, _, err := c.GetImage(rec.CTID)
			if err != nil {
				return 0, err
			}
			return len(img.Encode()), nil
		}},
		{"get CT base layer", func() (int, error) {
			_, n, err := c.GetCmp(rec.CmpID, 1)
			return n, err
		}},
		{"get voice fragment", func() (int, error) {
			pcm, _, _, err := c.GetAudio(rec.VoiceID)
			return len(pcm), err
		}},
	} {
		var payload int
		lat, err := timeIt(reps, func() (err error) {
			payload, err = fetch.call()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fetch.op, err)
		}
		row(fetch.op, payload, lat)
	}

	// Join + initial optimal presentation (use case of Fig. 4a).
	joiner, err := client.Dial(l.Addr().String(), "joiner")
	if err != nil {
		return nil, err
	}
	defer joiner.Close()
	start := time.Now()
	s, _, err := joiner.Join("e1-room", "p1", 0)
	if err != nil {
		return nil, err
	}
	joinLat := time.Since(start)
	if s.View().Outcome["ct"] == "" {
		return nil, fmt.Errorf("experiments: join returned no presentation")
	}
	row("join room + default presentation", docBytes, joinLat)

	t.Notes = append(t.Notes,
		"LAN-latency measured over loopback TCP with the binary wire codec; WAN columns are modeled link costs for the same payloads")
	return t, nil
}
