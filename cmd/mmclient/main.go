// Command mmclient is a line-oriented client module for the conferencing
// system: it joins a shared room, prints every propagated room event, and
// accepts interactive commands.
//
// Usage:
//
//	mmclient -addr 127.0.0.1:7070 -user dr-adams -room consult -doc patient-001
//
// -addr accepts a comma-separated endpoint list when the servers run as
// a cluster (DESIGN.md §12): redirects from the routing tier are
// followed transparently, and a dead node rotates to the next endpoint.
//
// Commands on stdin:
//
//	docs                          list stored documents
//	view                          show the current presentation
//	tree                          show the document's component hierarchy
//	choice <variable> <value>     pick a presentation (empty value retracts)
//	op <component> <op> <when>    apply a shared media operation
//	opp <component> <op> <when>   apply a private media operation
//	text <objID> <x> <y> <txt>    write a text element on an image
//	line <objID> <x1 y1 x2 y2>    draw a line element
//	del <objID> <annID>           delete an annotation
//	freeze <objID> / release <objID>
//	bcast start|stop              take or release the presentation floor
//	save                          persist the discussion minutes into the document
//	chat <message>
//	history                       replay the room's change buffer
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/document"
	"mmconf/internal/room"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "interaction server address (comma-separated list for cluster endpoints)")
	user := flag.String("user", "viewer", "user name")
	roomName := flag.String("room", "consult", "shared room to join")
	docID := flag.String("doc", "", "document id (required for the first joiner)")
	buffer := flag.Int64("buffer", 4<<20, "client media buffer bytes (0 disables)")
	reconnect := flag.Bool("reconnect", true, "redial and resume the session after a dropped connection")
	retries := flag.Int("retries", 8, "redial attempts per outage (-1: unlimited)")
	callTimeout := flag.Duration("call-timeout", 30*time.Second, "per-call deadline (0: unbounded)")
	flag.Parse()

	opts := client.Options{
		Reconnect:   *reconnect,
		MaxAttempts: *retries,
		CallTimeout: *callTimeout,
	}
	if err := run(*addr, *user, *roomName, *docID, *buffer, opts); err != nil {
		log.Fatalf("mmclient: %v", err)
	}
}

func run(addr, user, roomName, docID string, buffer int64, opts client.Options) error {
	// Every request is bounded by this context: Ctrl-C aborts a call in
	// flight (the server abandons the work too) and ends the session.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := client.NewOverResolver(nil, strings.Split(addr, ","), user, opts)
	if err != nil {
		return err
	}
	defer c.Close()

	session, history, err := c.JoinCtx(ctx, roomName, docID, buffer)
	if err != nil {
		return err
	}
	fmt.Printf("joined room %q as %s — document %q (%d components)\n",
		roomName, user, session.Doc.ID, len(session.Doc.Components()))
	for _, ev := range history {
		printEvent(ev)
	}
	printView(session.View())

	go func() {
		for ev := range c.Events() {
			printEvent(ev)
			if ev.Kind == room.EvShutdown {
				fmt.Println("server is shutting down; session over")
				stop()
				os.Exit(0)
			}
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if ctx.Err() != nil {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			if err := execute(ctx, c, session, line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		fmt.Print("> ")
	}
	// Leave with its own short deadline: the session context may already
	// be cancelled when we got here via Ctrl-C.
	lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return session.LeaveCtx(lctx)
}

func execute(ctx context.Context, c *client.Client, s *client.Session, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "docs":
		ids, titles, err := c.ListDocumentsCtx(ctx)
		if err != nil {
			return err
		}
		for i, id := range ids {
			fmt.Printf("  %-16s %s\n", id, titles[i])
		}
	case "view":
		printView(s.View())
	case "tree":
		printTree(s.Doc.Root, 0)
	case "choice":
		if len(args) < 1 {
			return fmt.Errorf("usage: choice <variable> [value]")
		}
		value := ""
		if len(args) > 1 {
			value = args[1]
		}
		return s.ChoiceCtx(ctx, args[0], value)
	case "op", "opp":
		if len(args) != 3 {
			return fmt.Errorf("usage: %s <component> <operation> <active-when>", cmd)
		}
		derived, err := s.OperationCtx(ctx, args[0], args[1], args[2], cmd == "opp")
		if err != nil {
			return err
		}
		fmt.Printf("derived variable: %s\n", derived)
	case "text":
		if len(args) < 4 {
			return fmt.Errorf("usage: text <objectID> <x> <y> <text...>")
		}
		id, x, y, err := parse3(args)
		if err != nil {
			return err
		}
		annID, err := s.AnnotateText(id, x, y, strings.Join(args[3:], " "), 1.0)
		if err != nil {
			return err
		}
		fmt.Printf("annotation %d\n", annID)
	case "line":
		if len(args) != 5 {
			return fmt.Errorf("usage: line <objectID> <x1> <y1> <x2> <y2>")
		}
		id, x1, y1, err := parse3(args)
		if err != nil {
			return err
		}
		x2, err1 := strconv.Atoi(args[3])
		y2, err2 := strconv.Atoi(args[4])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad coordinates")
		}
		annID, err := s.AnnotateLine(id, x1, y1, x2, y2, 1.0)
		if err != nil {
			return err
		}
		fmt.Printf("annotation %d\n", annID)
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <objectID> <annotationID>")
		}
		obj, err1 := strconv.ParseUint(args[0], 10, 64)
		ann, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad ids")
		}
		return s.DeleteAnnotation(obj, ann)
	case "freeze", "release":
		if len(args) != 1 {
			return fmt.Errorf("usage: %s <objectID>", cmd)
		}
		obj, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad object id")
		}
		if cmd == "freeze" {
			return s.Freeze(obj)
		}
		return s.Release(obj)
	case "save":
		comp, err := s.SaveMinutes()
		if err != nil {
			return err
		}
		fmt.Printf("discussion minutes saved as component %q\n", comp)
	case "bcast":
		if len(args) != 1 || (args[0] != "start" && args[0] != "stop") {
			return fmt.Errorf("usage: bcast start|stop")
		}
		if args[0] == "start" {
			return s.StartBroadcast()
		}
		return s.StopBroadcast()
	case "chat":
		return s.ChatCtx(ctx, strings.Join(args, " "))
	case "history":
		evs, err := s.HistoryCtx(ctx, 0)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			printEvent(ev)
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

func parse3(args []string) (uint64, int, int, error) {
	id, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad object id %q", args[0])
	}
	x, err := strconv.Atoi(args[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad x %q", args[1])
	}
	y, err := strconv.Atoi(args[2])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad y %q", args[2])
	}
	return id, x, y, nil
}

func printView(v document.View) {
	if v.Outcome == nil {
		fmt.Println("  (no presentation yet)")
		return
	}
	keys := make([]string, 0, len(v.Outcome))
	for k := range v.Outcome {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("current presentation:")
	for _, k := range keys {
		vis := ""
		if shown, ok := v.Visible[k]; ok && !shown {
			vis = "  [not visible]"
		}
		fmt.Printf("  %-24s %s%s\n", k, v.Outcome[k], vis)
	}
}

func printTree(c *document.Component, depth int) {
	indent := strings.Repeat("  ", depth)
	if c.Composite() {
		fmt.Printf("%s%s/ (%s)\n", indent, c.Name, c.Label)
		for _, ch := range c.Children {
			printTree(ch, depth+1)
		}
		return
	}
	var alts []string
	for _, p := range c.Presentations {
		alts = append(alts, p.Name)
	}
	fmt.Printf("%s%s (%s) — %s\n", indent, c.Name, c.Label, strings.Join(alts, " | "))
}

func printEvent(ev room.Event) {
	switch ev.Kind {
	case room.EvPresentation:
		// Every presentation received is this member's own: Actor names
		// whose event caused the re-solve, not whom it was pushed to.
		fmt.Printf("[%d] presentation updated\n", ev.Seq)
	case room.EvChoice:
		fmt.Printf("[%d] %s chose %s = %s\n", ev.Seq, ev.Actor, ev.Variable, ev.Value)
	case room.EvOperation:
		scope := "shared"
		if ev.Private {
			scope = "private"
		}
		fmt.Printf("[%d] %s applied %s on %s (%s) -> %s\n",
			ev.Seq, ev.Actor, ev.Op, ev.Component, scope, ev.DerivedVar)
	case room.EvAnnotate:
		fmt.Printf("[%d] %s annotated object %d: %s\n", ev.Seq, ev.Actor, ev.ObjectID, ev.Annotation.Text)
	case room.EvDeleteAnnotation:
		fmt.Printf("[%d] %s deleted annotation %d on object %d\n", ev.Seq, ev.Actor, ev.AnnotationID, ev.ObjectID)
	case room.EvFreeze:
		fmt.Printf("[%d] %s froze object %d\n", ev.Seq, ev.Actor, ev.ObjectID)
	case room.EvRelease:
		fmt.Printf("[%d] %s released object %d\n", ev.Seq, ev.Actor, ev.ObjectID)
	case room.EvWordSearch, room.EvSpeakerSearch:
		fmt.Printf("[%d] %s searched %q: %d hit(s)\n", ev.Seq, ev.Actor, ev.Keyword, len(ev.Hits))
	case room.EvChat:
		fmt.Printf("[%d] <%s> %s\n", ev.Seq, ev.Actor, ev.Text)
	case room.EvBroadcastStart:
		fmt.Printf("[%d] %s is now presenting; the floor is theirs\n", ev.Seq, ev.Actor)
	case room.EvBroadcastStop:
		fmt.Printf("[%d] broadcast ended\n", ev.Seq)
	case room.EvJoin:
		fmt.Printf("[%d] %s joined\n", ev.Seq, ev.Actor)
	case room.EvLeave:
		fmt.Printf("[%d] %s left\n", ev.Seq, ev.Actor)
	case room.EvShutdown:
		fmt.Printf("[%d] server announced shutdown\n", ev.Seq)
	}
}
