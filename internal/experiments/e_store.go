package experiments

import (
	"fmt"
	"os"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/store"
)

// E4Store measures the database server (Fig. 6/7): multimedia object
// insert/fetch throughput across payload sizes and WAL durability modes,
// plus crash-recovery time — the properties an Oracle deployment would
// give the paper's system and our embedded store must match in shape.
func E4Store(workdir string) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Object store throughput and durability (Fig. 6, 7)",
		Columns: []string{"payload", "sync-mode", "insert/s", "fetch/s", "wal-fsyncs"},
	}
	modes := []struct {
		name string
		opts store.Options
	}{
		{"always", store.Options{Sync: store.SyncAlways}},
		{"group-64", store.Options{Sync: store.SyncGroup}},
		{"never", store.Options{Sync: store.SyncNever}},
	}
	const ops = 200
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, mode := range modes {
			dir, err := os.MkdirTemp(workdir, "e4-*")
			if err != nil {
				return nil, err
			}
			db, err := store.Open(dir, mode.opts)
			if err != nil {
				return nil, err
			}
			m, err := mediadb.Open(db)
			if err != nil {
				db.Close()
				return nil, err
			}
			ids := make([]uint64, ops)
			start := time.Now()
			for i := 0; i < ops; i++ {
				id, err := m.PutImage(int64(i), "", 1.0, payload)
				if err != nil {
					db.Close()
					return nil, err
				}
				ids[i] = id
			}
			insertDur := time.Since(start)
			start = time.Now()
			for _, id := range ids {
				if _, err := m.GetImage(id); err != nil {
					db.Close()
					return nil, err
				}
			}
			fetchDur := time.Since(start)
			_, syncs := db.WALStats()
			db.Close()
			os.RemoveAll(dir)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dKiB", size>>10),
				mode.name,
				fmt.Sprintf("%.0f", float64(ops)/insertDur.Seconds()),
				fmt.Sprintf("%.0f", float64(ops)/fetchDur.Seconds()),
				fmt.Sprint(syncs),
			})
		}
	}
	// Recovery: replay cost after a crash mid-session.
	dir, err := os.MkdirTemp(workdir, "e4rec-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	m, err := mediadb.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	const recOps = 2000
	small := make([]byte, 1024)
	for i := 0; i < recOps; i++ {
		if _, err := m.PutImage(int64(i), "", 1.0, small); err != nil {
			db.Close()
			return nil, err
		}
	}
	db.Close() // clean close; the WAL still holds every operation
	start := time.Now()
	db2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	replay := time.Since(start)
	if err := db2.Checkpoint(); err != nil {
		db2.Close()
		return nil, err
	}
	db2.Close()
	start = time.Now()
	db3, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	snapLoad := time.Since(start)
	db3.Close()
	t.Notes = append(t.Notes,
		fmt.Sprintf("recovery of %d ops from WAL: %s; from checkpoint snapshot: %s",
			recOps, fmtDur(replay), fmtDur(snapLoad)),
		"ablation: group commit amortizes fsyncs (wal-fsyncs column) at equal durability horizon")
	return t, nil
}
