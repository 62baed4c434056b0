package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/core"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/workload"
)

// The choice workloads: one room, four members on four connections (the
// paper's physician group); members 0 and 1 drive Session.Choice from
// scripts, members 2 and 3 only listen. The primary operation runs from
// "choice sent" until the last of the four members has received the
// EvPresentation that follows that actor's EvChoice.

const roomMembers = 4

// ackTimeout bounds the wait for a choice's presentations; an op that
// hits it counts as failed.
const ackTimeout = 10 * time.Second

// member is one participant and the stream checker for what it
// observes. Fields below the marker are owned by the goroutine that
// delivers its events until that goroutine has been stopped.
type member struct {
	name string
	cl   *client.Client
	sess *client.Session

	room *choiceRoom
	// --- event-delivery goroutine only ---
	lastSeq  uint64
	disorder int    // events whose Seq did not increase: duplicates or reordering
	choices  int    // EvChoice events observed
	hash     uint64 // order-sensitive digest of (Seq, actor, variable, value) over EvChoices
	pending  int    // index of the member whose EvChoice awaits this member's EvPresentation, or -1
	log      []byte // (actor, variable, value) index triples; kept by one member for the engine replay
	keepLog  bool
}

// choiceRoom is one joined room with its drivers' scripts and ack
// plumbing; the measured run and the traced pass each build one.
type choiceRoom struct {
	name    string
	members []*member
	index   map[string]int // member name -> index
	vars    []string       // variable names, for the compact log
	varIdx  map[string]int
	domains map[string][]string

	scripts [][]workload.Choice // per issuing member
	pos     []int
	issued  []int        // successful Choice calls per issuing member
	acks    []chan int64 // per issuing member: receive times (ns since base) of the presentations
	timers  []*time.Timer
	base    time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

func newChoiceRoom(name string, doc *document.Document, issuers int) *choiceRoom {
	r := &choiceRoom{
		name: name, index: make(map[string]int), varIdx: make(map[string]int),
		domains: make(map[string][]string), base: time.Now(), stop: make(chan struct{}),
	}
	for _, v := range doc.Prefs.Variables() {
		r.varIdx[v.Name] = len(r.vars)
		r.vars = append(r.vars, v.Name)
		r.domains[v.Name] = v.Domain
	}
	r.scripts = make([][]workload.Choice, issuers)
	r.pos = make([]int, issuers)
	r.issued = make([]int, issuers)
	r.acks = make([]chan int64, issuers)
	r.timers = make([]*time.Timer, issuers)
	for i := range r.acks {
		// One slot per member and per op in flight; a driver has one op in
		// flight, the slack absorbs acks of an op that timed out.
		r.acks[i] = make(chan int64, 2*roomMembers)
		r.timers[i] = time.NewTimer(time.Hour)
	}
	return r
}

func (r *choiceRoom) add(m *member) {
	m.room, m.pending = r, -1
	m.hash = 14695981039346656037
	r.index[m.name] = len(r.members)
	r.members = append(r.members, m)
}

// pump delivers a conferencing client's event stream to its checker.
func (r *choiceRoom) pump(m *member) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			select {
			case ev := <-m.cl.Events():
				m.sess.ApplyEvent(ev)
				m.observe(ev)
			case <-r.stop:
				return
			}
		}
	}()
}

func (m *member) observe(ev room.Event) {
	if ev.Room != m.room.name {
		return
	}
	if ev.Seq <= m.lastSeq {
		m.disorder++
	}
	m.lastSeq = ev.Seq
	switch ev.Kind {
	case room.EvChoice:
		r := m.room
		actor, okA := r.index[ev.Actor]
		vi, okV := r.varIdx[ev.Variable]
		val := indexOf(r.domains[ev.Variable], ev.Value)
		if !okA || !okV || val < 0 {
			m.disorder++ // an event nobody sent
			return
		}
		m.choices++
		for _, x := range [...]uint64{ev.Seq, uint64(actor), uint64(vi), uint64(val)} {
			m.hash = (m.hash ^ x) * 1099511628211
		}
		if m.keepLog {
			m.log = append(m.log, byte(actor), byte(vi), byte(val))
		}
		m.pending = actor
	case room.EvPresentation:
		// A presentation with no choice before it is a QoS re-tune of
		// this member alone; it completes nobody's operation.
		if m.pending >= 0 && m.pending < len(m.room.acks) {
			m.room.acks[m.pending] <- int64(time.Since(m.room.base))
		}
		m.pending = -1
	}
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

// awaitAcks waits until every member has received the presentation that
// follows issuer's latest choice and returns when the last one did.
func (r *choiceRoom) awaitAcks(issuer int) (last int64, err error) {
	t := r.timers[issuer]
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(ackTimeout)
	for range r.members {
		select {
		case at := <-r.acks[issuer]:
			if at > last {
				last = at
			}
		case <-t.C:
			return 0, fmt.Errorf("choice by %s: presentations did not reach all %d members within %v",
				r.members[issuer].name, len(r.members), ackTimeout)
		}
	}
	return last, nil
}

// nextChoice advances issuer's script.
func (r *choiceRoom) nextChoice(issuer int) workload.Choice {
	s := r.scripts[issuer]
	ch := s[r.pos[issuer]%len(s)]
	r.pos[issuer]++
	return ch
}

// choose performs one primary operation through the client library.
func (r *choiceRoom) choose(issuer int) (time.Duration, error) {
	ch := r.nextChoice(issuer)
	t0 := time.Since(r.base)
	if err := r.members[issuer].sess.Choice(ch.Variable, ch.Value); err != nil {
		return 0, err
	}
	r.issued[issuer]++
	last, err := r.awaitAcks(issuer)
	return time.Duration(last) - t0, err
}

// stopPumps ends event delivery; the members' checker fields may be read
// afterwards.
func (r *choiceRoom) stopPumps() {
	close(r.stop)
	r.wg.Wait()
}

// verify is the end-of-run check: all members saw one identical,
// duplicate-free, complete order of choices, and each member's final
// view equals a local engine fed that order.
func (r *choiceRoom) verify() []string {
	var bad []string
	want := 0
	for _, n := range r.issued {
		want += n
	}
	first := r.members[0]
	for _, m := range r.members {
		if m.disorder > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d events out of Seq order, duplicated or unknown", m.name, m.disorder))
		}
		if m.choices != want {
			bad = append(bad, fmt.Sprintf("%s: saw %d choices, %d were acknowledged", m.name, m.choices, want))
		}
		if m.hash != first.hash {
			bad = append(bad, fmt.Sprintf("%s: choice order differs from %s's", m.name, first.name))
		}
		if m.sess.NeedsResync() {
			bad = append(bad, fmt.Sprintf("%s: server dropped events from its queue", m.name))
		}
	}
	if len(bad) > 0 {
		return bad
	}
	return r.verifyViews()
}

// verifyViews replays the logged order into a local core.Engine and
// compares every member's Session.View with the engine's.
func (r *choiceRoom) verifyViews() []string {
	var logger *member
	for _, m := range r.members {
		if m.keepLog {
			logger = m
		}
	}
	doc, err := copyDoc(logger.sess.Doc)
	if err != nil {
		return []string{err.Error()}
	}
	eng, err := core.NewEngine(doc)
	if err != nil {
		return []string{err.Error()}
	}
	for _, m := range r.members {
		if _, err := eng.Join(m.name); err != nil {
			return []string{err.Error()}
		}
	}
	for i := 0; i+2 < len(logger.log); i += 3 {
		variable := r.vars[logger.log[i+1]]
		if _, err := eng.Choice(r.members[logger.log[i]].name, variable, r.domains[variable][logger.log[i+2]]); err != nil {
			return []string{fmt.Sprintf("replay of observed choice %d: %v", i/3, err)}
		}
	}
	var bad []string
	for _, m := range r.members {
		got := m.sess.View()
		// The server's QoS loop may have pinned this member's measured
		// bandwidth level; the level is part of the view, so pin it
		// locally before comparing.
		if level, ok := got.Outcome[core.BandwidthVariable]; ok {
			if _, err := eng.SetViewerEnvironment(m.name, core.BandwidthVariable, level); err != nil {
				return []string{err.Error()}
			}
		}
		want, err := eng.ViewFor(m.name)
		if err != nil {
			return []string{err.Error()}
		}
		if !reflect.DeepEqual(got.Outcome, want.Outcome) || !reflect.DeepEqual(got.Visible, want.Visible) {
			bad = append(bad, fmt.Sprintf("%s: final view differs from a local engine fed the observed order", m.name))
		}
	}
	return bad
}

// copyDoc returns a private copy of a document (engines and rooms
// mutate the one they are given).
func copyDoc(doc *document.Document) (*document.Document, error) {
	data, err := doc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return document.Unmarshal(data)
}

// names lists the room's member names in join order.
func (r *choiceRoom) names() []string {
	names := make([]string, len(r.members))
	for i, m := range r.members {
		names[i] = m.name
	}
	return names
}

// choiceInst is a set-up choice workload (single server or cluster).
type choiceInst struct {
	s     *sut
	docID string
	doc   *document.Document
	seed  int64
	room  *choiceRoom
	// attach names the cluster node each member index connects to (nil
	// on the single server); owner is the node that owns the rooms.
	attach []string
	owner  string
}

func (c *choiceInst) system() *sut { return c.s }

func (c *choiceInst) op(driver int) (opKind, time.Duration, error) {
	d, err := c.room.choose(driver)
	return opRead, d, err
}

func (c *choiceInst) finish() []string {
	c.room.stopPumps()
	bad := c.room.verify()
	if c.s.harness != nil {
		ctr := c.s.counters()
		if ctr["cluster.redirects"] != 0 {
			bad = append(bad, fmt.Sprintf("cluster answered %v redirects; forwarding must relay every request", ctr["cluster.redirects"]))
		}
		if ctr["cluster.forwards"] == 0 {
			bad = append(bad, "cluster relayed no request: the drivers were not attached to non-owners")
		}
	}
	return bad
}

func (c *choiceInst) close() { c.s.close() }

// connect dials member i of a room; wrap, when non-nil, decorates the
// connection (the traced pass timestamps its driver's socket).
func (c *choiceInst) connect(user string, i int, wrap connWrapper) (*client.Client, error) {
	if c.attach == nil {
		return c.s.dial(user, wrap)
	}
	return c.s.dialNode(user, c.attach[i], wrap)
}

// joinRoom builds a room of roomMembers participants named prefix0..3,
// the first `issuers` of which get scripts. wrap0 decorates member 0's
// connection.
func (c *choiceInst) joinRoom(roomName, prefix string, issuers int, wrap0 connWrapper) (*choiceRoom, error) {
	r := newChoiceRoom(roomName, c.doc, issuers)
	for i := 0; i < roomMembers; i++ {
		m := &member{name: fmt.Sprintf("%s%d", prefix, i)}
		r.add(m)
		var wrap connWrapper
		if i == 0 {
			wrap = wrap0
		}
		cl, err := c.connect(m.name, i, wrap)
		if err != nil {
			return nil, err
		}
		m.cl = cl
		if m.sess, _, err = cl.Join(roomName, c.docID, 0); err != nil {
			return nil, fmt.Errorf("join %s as %s: %w", roomName, m.name, err)
		}
		m.keepLog = i == roomMembers-1 // one listener keeps the replay log
		r.pump(m)
	}
	for i := 0; i < issuers; i++ {
		r.scripts[i] = choiceScript(c.doc, r.members[i].name, c.seed, i)
	}
	return r, nil
}

// setupConfChoice: one server, record p0, room "consult". Storing the
// record is what a fresh mmserver -seed does, so it is part of the timed
// set-up.
func setupConfChoice(seed int64) (instance, error) {
	var rec *workload.PopulatedRecord
	s, err := newServerSUT(wlConfChoice, 0, func(m *mediadb.MediaDB) error {
		var err error
		rec, err = workload.Populate(m, "p0", subSeed(seed, "record", 0))
		return err
	})
	if err != nil {
		return nil, err
	}
	c := &choiceInst{s: s, docID: "p0", doc: rec.Doc, seed: seed}
	if c.room, err = c.joinRoom("consult", "dr", numDrivers, nil); err != nil {
		s.close()
		return nil, err
	}
	return c, nil
}

// setupClusterChoice: the same operation on a 3-node forwarding
// cluster. The room is owned by n1; both drivers attach to non-owners
// (n2, n3), one listener to the owner and one to n2.
func setupClusterChoice(seed int64) (instance, error) {
	s, err := newClusterSUT(wlClusterChoice, subSeed(seed, "record", 0))
	if err != nil {
		return nil, err
	}
	c := &choiceInst{
		s: s, docID: "p1", doc: s.harness.Record.Doc, seed: seed,
		attach: []string{"n2", "n3", "n1", "n2"}, owner: "n1",
	}
	if c.room, err = c.joinRoom(s.harness.RoomOwnedBy(c.owner, "consult"), "dr", numDrivers, nil); err != nil {
		s.close()
		return nil, err
	}
	return c, nil
}
