// Teleconsult: the paper's motivating scenario end to end — a group of
// physicians discussing a patient file in a shared room. The example
// boots the full system in-process (database server, interaction server,
// TCP), populates a synthetic medical record, joins two physicians to a
// room, and drives a consultation: presentation choices, a shared
// segmentation, annotations on the CT, a freeze, and chat — every action
// propagating to the partner.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "teleconsult-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// --- Database server with one patient record. ---
	db, err := store.Open(dir, store.Options{Sync: store.SyncGroup})
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		return err
	}
	rec, err := workload.Populate(m, "patient-001", 1)
	if err != nil {
		return err
	}
	fmt.Printf("stored patient-001: CT object %d, X-ray %d, voice %d, layered stream %d\n\n",
		rec.CTID, rec.XrayID, rec.VoiceID, rec.CmpID)

	// --- Interaction server. ---
	srv := server.New(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer srv.Close()

	// --- Two physicians join the same room. ---
	adams, err := client.Dial(l.Addr().String(), "dr-adams")
	if err != nil {
		return err
	}
	defer adams.Close()
	baker, err := client.Dial(l.Addr().String(), "dr-baker")
	if err != nil {
		return err
	}
	defer baker.Close()

	sa, _, err := adams.Join("tumor-board", "patient-001", 4<<20)
	if err != nil {
		return err
	}
	sb, _, err := baker.Join("tumor-board", "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("dr-adams sees: %s\n", sa.View().Outcome)

	// Baker prints everything that reaches him, as a client GUI would.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range baker.Events() {
			switch ev.Kind {
			case room.EvChoice:
				fmt.Printf("  [baker's screen] %s chose %s=%s\n", ev.Actor, ev.Variable, ev.Value)
			case room.EvPresentation:
				// The push carries what changed; the session, which took it in
				// when it arrived, holds the view.
				o := sb.View().Outcome
				fmt.Printf("  [baker's screen] presentation -> ct=%s xray=%s voice=%s\n",
					o["ct"], o["xray"], o["voice"])
			case room.EvOperation:
				fmt.Printf("  [baker's screen] %s applied %s on %s -> %s\n",
					ev.Actor, ev.Op, ev.Component, ev.DerivedVar)
			case room.EvAnnotate:
				fmt.Printf("  [baker's screen] %s wrote %q on object %d\n",
					ev.Actor, ev.Annotation.Text, ev.ObjectID)
			case room.EvFreeze:
				fmt.Printf("  [baker's screen] %s froze object %d\n", ev.Actor, ev.ObjectID)
			case room.EvRelease:
				fmt.Printf("  [baker's screen] %s released object %d\n", ev.Actor, ev.ObjectID)
			case room.EvChat:
				fmt.Printf("  [baker's screen] <%s> %s\n", ev.Actor, ev.Text)
			}
		}
	}()

	step := func(desc string, fn func() error) error {
		fmt.Printf("\n-- %s\n", desc)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", desc, err)
		}
		time.Sleep(150 * time.Millisecond) // let pushes land for the demo transcript
		return nil
	}

	if err := step("adams asks for the segmented CT (x-ray auto-hides for everyone)", func() error {
		return sa.Choice("ct", "segmented")
	}); err != nil {
		return err
	}
	if err := step("adams freezes the CT while measuring", func() error {
		return sa.Freeze(rec.CTID)
	}); err != nil {
		return err
	}
	if err := step("baker tries to annotate the frozen CT (rejected)", func() error {
		if _, err := sb.AnnotateText(rec.CTID, 40, 40, "see here", 1.0); err != nil {
			fmt.Printf("   server refused baker: %v\n", err)
			return nil
		}
		return fmt.Errorf("freeze was not enforced")
	}); err != nil {
		return err
	}
	if err := step("adams marks the lesion and releases the freeze", func() error {
		if _, err := sa.AnnotateText(rec.CTID, 120, 96, "lesion 8mm", 1.0); err != nil {
			return err
		}
		if _, err := sa.AnnotateLine(rec.CTID, 110, 90, 135, 105, 1.0); err != nil {
			return err
		}
		return sa.Release(rec.CTID)
	}); err != nil {
		return err
	}
	if err := step("baker annotates now that the freeze is lifted", func() error {
		_, err := sb.AnnotateText(rec.CTID, 60, 150, "agree - biopsy", 1.0)
		return err
	}); err != nil {
		return err
	}
	if err := step("the team chats", func() error {
		if err := sa.Chat("scheduling biopsy for tomorrow"); err != nil {
			return err
		}
		return sb.Chat("adding it to the notes")
	}); err != nil {
		return err
	}

	// The change buffer lets a latecomer catch up.
	fmt.Printf("\n-- dr-chen joins late and replays the change buffer\n")
	chen, err := client.Dial(l.Addr().String(), "dr-chen")
	if err != nil {
		return err
	}
	defer chen.Close()
	_, history, err := chen.Join("tumor-board", "", 0)
	if err != nil {
		return err
	}
	counts := map[room.EventKind]int{}
	for _, ev := range history {
		counts[ev.Kind]++
	}
	fmt.Printf("   replayed %d events: %d choices, %d annotations, %d chat messages\n",
		len(history), counts[room.EvChoice], counts[room.EvAnnotate], counts[room.EvChat])

	time.Sleep(200 * time.Millisecond)
	fmt.Printf("\nfinal shared view (baker): %s\n", sb.View().Outcome)
	return nil
}
