package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/cluster"
	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// Per-layer probes and the traced pass for the choice workloads. Every
// probe works on the document the server handed the members (so it
// carries the QoS tuning variable the server added) and on the drivers'
// scripted choices.

// servedDoc returns a private copy of the document as the server's room
// holds it.
func (c *choiceInst) servedDoc() (*document.Document, error) {
	return copyDoc(c.room.members[0].sess.Doc)
}

// mirrorRoom is a local room.Room with the same members as the served
// one, its member queues drained by the benchmark.
type mirrorRoom struct {
	r    *room.Room
	done chan struct{}
	n    int
}

func newMirrorRoom(doc *document.Document, names []string) (*mirrorRoom, error) {
	r, err := room.New("mirror", doc)
	if err != nil {
		return nil, err
	}
	m := &mirrorRoom{r: r, done: make(chan struct{}, len(names)), n: len(names)}
	for _, name := range names {
		mem, _, _, err := r.Join(context.Background(), name)
		if err != nil {
			r.Close()
			return nil, err
		}
		go func() {
			for ev := range mem.Events() { // closed by r.Close
				mem.Consumed(ev)
			}
			m.done <- struct{}{}
		}()
	}
	return m, nil
}

func (m *mirrorRoom) close() {
	m.r.Close()
	for i := 0; i < m.n; i++ {
		<-m.done
	}
}

func mirrorEngine(doc *document.Document, names []string) (*core.Engine, error) {
	eng, err := core.NewEngine(doc)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if _, err := eng.Join(name); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func (c *choiceInst) layers(lr *layerRun) {
	if err := c.probes(lr); err != nil {
		lr.fail(err.Error())
		return
	}
	if c.s.harness != nil {
		if err := c.clusterProbes(lr); err != nil {
			lr.fail(err.Error())
			return
		}
	}
	if err := c.tracePass(lr); err != nil {
		lr.fail(err.Error())
	}
}

// probes times cpnet, core, room, the event and request codecs, the
// client's event application and the bare wire layer.
func (c *choiceInst) probes(lr *layerRun) error {
	script := c.room.scripts[0]
	names := c.room.names()
	next := func(i *int) workload.Choice { ch := script[*i%len(script)]; *i++; return ch }

	doc, err := c.servedDoc()
	if err != nil {
		return err
	}
	evidence, i := cpnet.Outcome{}, 0
	var perr error
	lr.set("cpnet.complete_us", timeCalls(lr.n(300), 100, func() {
		ch := next(&i)
		evidence[ch.Variable] = ch.Value
		if _, err := doc.Prefs.OptimalCompletion(evidence); err != nil {
			perr = err
		}
	})/1e3)

	eng, err := mirrorEngine(doc, names)
	if err != nil {
		return err
	}
	i = 0
	lr.set("core.choice_us", timeCalls(lr.n(300), 20, func() {
		ch := next(&i)
		if _, err := eng.Choice(names[0], ch.Variable, ch.Value); err != nil {
			perr = err
		}
		if _, err := eng.Views(); err != nil {
			perr = err
		}
	})/1e3)

	doc2, err := c.servedDoc()
	if err != nil {
		return err
	}
	mr, err := newMirrorRoom(doc2, names)
	if err != nil {
		return err
	}
	i = 0
	ctx := context.Background()
	lr.set("room.choice_us", timeCalls(lr.n(300), 20, func() {
		ch := next(&i)
		if err := mr.r.Choice(ctx, names[0], ch.Variable, ch.Value); err != nil {
			perr = err
		}
	})/1e3)
	mr.close()

	// The two events one choice produces for a member.
	view := c.room.members[0].sess.View()
	evChoice := room.Event{Seq: 1 << 20, Room: c.room.name, Actor: names[0], Kind: room.EvChoice, Variable: script[0].Variable, Value: script[0].Value}
	evPres := room.Event{Seq: 1<<20 + 1, Room: c.room.name, Actor: names[0], Kind: room.EvPresentation, Outcome: view.Outcome, Visible: view.Visible}
	var bytes int
	lr.set("room.encode_us", timeCalls(lr.n(300), 50, func() {
		a, err1 := room.MarshalEventBinary(evChoice)
		b, err2 := room.MarshalEventBinary(evPres)
		if err1 != nil || err2 != nil {
			perr = fmt.Errorf("event encode: %v %v", err1, err2)
		}
		bytes = len(a) + len(b)
	})/1e3)
	lr.set("room.event_bytes", float64(bytes))

	req := &proto.ChoiceReq{Room: c.room.name, User: names[0], Variable: script[0].Variable, Value: script[0].Value}
	lr.set("proto.choice_codec_us", timeCalls(lr.n(300), 100, func() {
		var out proto.ChoiceReq
		if err := wire.DecodeBodyBytes(wire.MarshalBody(req), &out); err != nil {
			perr = err
		}
	})/1e3)

	// The measured room's pumps have stopped and its views are verified,
	// so a listener's session can absorb probe events.
	sess := c.room.members[roomMembers-1].sess
	lr.set("client.event_apply_us", timeCalls(lr.n(300), 200, func() { sess.ApplyEvent(evPres) })/1e3)

	lr.wireProbes(true, false, false, true)
	return perr
}

// clusterProbes measures what the cluster layer adds: the relay hop,
// the idle cost of heartbeats and dataset sync, and placement lookup.
func (c *choiceInst) clusterProbes(lr *layerRun) error {
	h := c.s.harness
	hopRoom := h.RoomOwnedBy(c.owner, "hop")
	var sessions [2]*client.Session
	for i, node := range []string{c.owner, c.attach[0]} { // owner-attached, relay-attached
		cl, err := c.s.dialNode(fmt.Sprintf("hop%d", i), node, nil)
		if err != nil {
			return err
		}
		sess, _, err := cl.Join(hopRoom, c.docID, 0)
		if err != nil {
			return err
		}
		sessions[i] = sess
	}
	script := c.room.scripts[0]
	var lat [2][]float64
	for i := 0; i < lr.n(1000); i++ {
		ch := script[i%len(script)]
		for k, sess := range sessions {
			t0 := time.Now()
			if err := sess.Choice(ch.Variable, ch.Value); err != nil {
				return err
			}
			lat[k] = append(lat[k], float64(time.Since(t0)))
		}
	}
	lr.set("cluster.forward_hop_us", (median(lat[1])-median(lat[0]))/1e3)

	var ids []string
	for _, hn := range h.Nodes {
		ids = append(ids, hn.ID)
	}
	place := cluster.NewPlacement(ids)
	lr.set("cluster.placement_owner_ns", timeCalls(lr.n(300), 1000, func() { place.Owner(hopRoom) }))

	// Rooms joined, nobody acting: what heartbeats and per-heartbeat
	// dataset sync cost on their own.
	idle := 3 * time.Second
	if lr.cfg.smoke {
		idle = 300 * time.Millisecond
	}
	a := takeProcSnapshot()
	time.Sleep(idle)
	b := takeProcSnapshot()
	secs := b.at.Sub(a.at).Seconds()
	lr.set("cluster.idle_cpu_ms_per_s", float64(b.cpu-a.cpu)/float64(time.Millisecond)/secs)
	lr.set("cluster.idle_alloc_kb_per_s", float64(b.allocBytes-a.allocBytes)/1024/secs)
	return nil
}

// handleTotal reads the cumulative server-side wall time of method on
// one node (index into sut.servers()); its delta across a single request
// is that request's handle time.
func (s *sut) handleTotal(node int, method string) time.Duration {
	return s.servers()[node].Stats().Method(method).TotalLatency
}

// tracedChoices is how many operations the traced pass records.
const tracedChoices = 2000

// tracePass drives a fresh four-member room with one driver and records
// the span tree of every choice:
//
//	op.choice                    choice sent -> last member has its presentation
//	  client.choice              Session.Choice
//	    wire.roundtrip           request on the socket -> reply off the socket
//	      [cluster.relay]        ingress node's handle time (cluster only)
//	        server.handle        owner's handle time for this request
//	          room.choice        replay on a mirror room
//	            core.choice      replay on a mirror engine (Choice + Views)
//	              cpnet.complete replay: one completion per view computed
//	    proto.codec              replay: ChoiceReq encode + decode
func (c *choiceInst) tracePass(lr *layerRun) error {
	roomName := "trace"
	ownerNode, ingressNode := 0, -1
	if c.s.harness != nil {
		roomName = c.s.harness.RoomOwnedBy(c.owner, "trace")
		for i, hn := range c.s.harness.Nodes {
			switch hn.ID {
			case c.owner:
				ownerNode = i
			case c.attach[0]:
				ingressNode = i
			}
		}
	}
	var tc *tracedConn
	tr, err := c.joinRoom(roomName, "tr", 1, func(conn net.Conn) net.Conn {
		tc = &tracedConn{Conn: conn}
		return tc
	})
	if err != nil {
		return err
	}
	names := tr.names()
	doc, err := c.servedDoc()
	if err != nil {
		return err
	}
	mr, err := newMirrorRoom(doc, names)
	if err != nil {
		return err
	}
	defer mr.close()
	doc2, err := c.servedDoc()
	if err != nil {
		return err
	}
	eng, err := mirrorEngine(doc2, names)
	if err != nil {
		return err
	}
	evidence := cpnet.Outcome{}
	ctx := context.Background()
	sess := tr.members[0].sess

	n := tracedChoices
	if lr.cfg.smoke {
		n = 100
	}
	t := newTracer()
	for i := -n / 10; i < n; i++ { // the first tenth warms the room and is not recorded
		ch := tr.nextChoice(0)
		ownerBefore := c.s.handleTotal(ownerNode, proto.MChoice)
		var ingressBefore time.Duration
		if ingressNode >= 0 {
			ingressBefore = c.s.handleTotal(ingressNode, proto.MChoice)
		}
		tc.reset()
		t0 := time.Now()
		if err := sess.Choice(ch.Variable, ch.Value); err != nil {
			return err
		}
		t1 := time.Now()
		w0, w1 := tc.roundTrip(t0, t1)
		tr.issued[0]++
		last, err := tr.awaitAcks(0)
		if err != nil {
			return err
		}
		if i < 0 {
			_ = mr.r.Choice(ctx, names[0], ch.Variable, ch.Value)
			_, _ = eng.Choice(names[0], ch.Variable, ch.Value)
			continue
		}
		end := tr.base.Add(time.Duration(last))
		if end.Before(t1) {
			end = t1
		}
		o := t.begin()
		root := o.add(0, "op.choice", t0, end)
		call := o.add(root, "client.choice", t0, t1)
		parent := o.add(call, "wire.roundtrip", w0, w1)
		if ingressNode >= 0 {
			parent = o.addDur(parent, "cluster.relay", w0, c.s.handleTotal(ingressNode, proto.MChoice)-ingressBefore)
		}
		parent = o.addDur(parent, "server.handle", w0, c.s.handleTotal(ownerNode, proto.MChoice)-ownerBefore)
		var rerr error
		parent = o.timed(parent, "room.choice", func() { rerr = mr.r.Choice(ctx, names[0], ch.Variable, ch.Value) })
		if rerr != nil {
			return rerr
		}
		parent = o.timed(parent, "core.choice", func() {
			if _, rerr = eng.Choice(names[0], ch.Variable, ch.Value); rerr == nil {
				_, rerr = eng.Views()
			}
		})
		if rerr != nil {
			return rerr
		}
		evidence[ch.Variable] = ch.Value
		o.timed(parent, "cpnet.complete", func() {
			for v := 0; v <= roomMembers; v++ { // Choice computes the actor's view, Views one per member
				if _, err := doc2.Prefs.OptimalCompletion(evidence); err != nil {
					rerr = err
				}
			}
		})
		if rerr != nil {
			return rerr
		}
		req := &proto.ChoiceReq{Room: roomName, User: names[0], Variable: ch.Variable, Value: ch.Value}
		o.timed(call, "proto.codec", func() {
			var out proto.ChoiceReq
			rerr = wire.DecodeBodyBytes(wire.MarshalBody(req), &out)
		})
		if rerr != nil {
			return rerr
		}
	}
	tr.stopPumps()
	lr.fail(tr.verify()...)
	lr.traced(t)
	lr.set("client.choice_self_us", lr.out["trace.self_us.client"])
	return nil
}
