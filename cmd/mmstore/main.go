// Command mmstore inspects and administers a multimedia database
// directory without the interaction server running.
//
// Usage:
//
//	mmstore -data ./mmdata tables            # list relations and row counts
//	mmstore -data ./mmdata types             # show the multimedia-type catalog (Fig. 7)
//	mmstore -data ./mmdata docs              # list stored documents
//	mmstore -data ./mmdata doc <id>          # dump one document's structure and CP-net
//	mmstore -data ./mmdata checkpoint        # snapshot state and truncate the WAL
//	mmstore -data ./mmdata vacuum            # compact blob segments, returning free space to the filesystem
//	mmstore -data ./mmdata stats             # blob-store and WAL health gauges
//	mmstore -data ./mmdata fsck              # verify every blob reference and payload checksum
//	mmstore -data ./mmdata seed <id> [seed]  # populate a synthetic record (fixtures, demos)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/store"
	"mmconf/internal/workload"
)

func main() {
	data := flag.String("data", "./mmdata", "database directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmstore [-data dir] tables|types|docs|doc <id>|checkpoint|vacuum|stats|fsck|seed <id> [seed]")
		os.Exit(2)
	}
	if err := run(*data, args); err != nil {
		log.Fatalf("mmstore: %v", err)
	}
}

func run(data string, args []string) error {
	db, err := store.Open(data, store.Options{Sync: store.SyncNever})
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		return err
	}
	switch args[0] {
	case "tables":
		for _, name := range db.Tables() {
			tbl, err := db.Table(name)
			if err != nil {
				return err
			}
			n, err := tbl.Len()
			if err != nil {
				return err
			}
			schema, err := tbl.Schema()
			if err != nil {
				return err
			}
			cols := make([]string, len(schema))
			for i, c := range schema {
				cols[i] = fmt.Sprintf("%s:%s", c.Name, c.Type)
			}
			fmt.Printf("%-28s %6d rows  (%s)\n", name, n, strings.Join(cols, ", "))
		}
	case "types":
		types, err := m.Types()
		if err != nil {
			return err
		}
		for _, ti := range types {
			fmt.Printf("%-12s %-24s -> %-24s %s\n", ti.Name, ti.MIME, ti.ObjectTable, ti.Description)
		}
	case "docs":
		ids, titles, err := m.ListDocuments()
		if err != nil {
			return err
		}
		for i, id := range ids {
			fmt.Printf("%-20s %s\n", id, titles[i])
		}
	case "doc":
		if len(args) != 2 {
			return fmt.Errorf("usage: mmstore doc <id>")
		}
		doc, err := m.GetDocument(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("document %s — %s\n\ncomponents:\n", doc.ID, doc.Title)
		dumpComponent(doc.Root, 1)
		fmt.Printf("\npreference network:\n%s", doc.Prefs.Text())
		v, err := doc.DefaultPresentation()
		if err != nil {
			return err
		}
		fmt.Printf("\ndefault presentation: %s\n", v.Outcome)
	case "checkpoint":
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("checkpoint written; WAL truncated")
	case "vacuum":
		reclaimed, err := db.CompactBlobs()
		if err != nil {
			return err
		}
		fmt.Printf("blob store compacted; %d bytes reclaimed\n", reclaimed)
	case "stats":
		bs, missing := db.BlobStats()
		appends, syncs := db.WALStats()
		fmt.Printf("blob objects        %d\n", bs.Manifests)
		fmt.Printf("blob chunks         %d\n", bs.Chunks)
		fmt.Printf("blob live bytes     %d\n", bs.LiveBytes)
		fmt.Printf("blob free bytes     %d\n", bs.FreeBytes)
		fmt.Printf("blob on-disk bytes  %d (%d segments)\n", bs.TotalBytes, bs.Segments)
		fmt.Printf("blob dedup hits     %d (%d bytes saved)\n", bs.DedupHits, bs.DedupBytes)
		fmt.Printf("blob hole reuses    %d\n", bs.HoleReuses)
		fmt.Printf("blob compactions    %d (%d bytes moved)\n", bs.Compactions, bs.CompactedBytes)
		fmt.Printf("blob missing refs   %d\n", missing)
		fmt.Printf("wal appends/fsyncs  %d/%d\n", appends, syncs)
	case "fsck":
		rep, err := db.FsckBlobs()
		if err != nil {
			return err
		}
		fmt.Printf("objects %d  referenced %d  bytes-checked %d\n",
			rep.Objects, rep.Referenced, rep.BytesChecked)
		for _, d := range rep.Missing {
			fmt.Printf("MISSING  %s\n", d)
		}
		for _, d := range rep.Corrupt {
			fmt.Printf("CORRUPT  %s\n", d)
		}
		if rep.Orphans > 0 {
			fmt.Printf("orphaned objects: %d (reclaimed at the next open)\n", rep.Orphans)
		}
		if rep.RefMismatches > 0 {
			fmt.Printf("refcount mismatches: %d (healed on next open)\n", rep.RefMismatches)
		}
		if !rep.Clean() {
			return fmt.Errorf("fsck: store is not clean (%d missing, %d corrupt, %d orphans, %d ref mismatches)",
				len(rep.Missing), len(rep.Corrupt), rep.Orphans, rep.RefMismatches)
		}
		fmt.Println("clean: every reference resolves and every payload matches its digest")
	case "seed":
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("usage: mmstore seed <doc-id> [seed]")
		}
		seed := int64(1)
		if len(args) == 3 {
			if _, err := fmt.Sscanf(args[2], "%d", &seed); err != nil {
				return fmt.Errorf("seed: bad seed %q", args[2])
			}
		}
		rec, err := workload.Populate(m, args[1], seed)
		if err != nil {
			return err
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("seeded document %s (images %d,%d; cmp %d; audio %d)\n",
			args[1], rec.CTID, rec.XrayID, rec.CmpID, rec.VoiceID)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return nil
}

func dumpComponent(c *document.Component, depth int) {
	indent := strings.Repeat("  ", depth)
	if c.Composite() {
		fmt.Printf("%s%s/ %q\n", indent, c.Name, c.Label)
		for _, ch := range c.Children {
			dumpComponent(ch, depth+1)
		}
		return
	}
	fmt.Printf("%s%s %q\n", indent, c.Name, c.Label)
	for _, p := range c.Presentations {
		loc := "inline"
		if p.ObjectID != 0 {
			loc = fmt.Sprintf("object %d", p.ObjectID)
		}
		fmt.Printf("%s  - %-12s %-16s %-10s ~%d bytes\n", indent, p.Name, p.Kind, loc, p.Bytes)
	}
}
