package store

import (
	"errors"

	"mmconf/internal/blob"
)

// FsckReport is the result of a blob-store consistency check.
type FsckReport struct {
	// Objects is the number of distinct blob objects in the store;
	// Referenced is how many TBlob cells point at them.
	Objects    int
	Referenced int
	// BytesChecked is the payload bytes read and digest-verified.
	BytesChecked int64
	// Missing lists digests referenced by rows but absent from the
	// store; Corrupt lists objects present but failing their checksum;
	// Orphans counts stored objects no row references (normally zero —
	// Open reconciles them away).
	Missing []blob.Digest
	Corrupt []blob.Digest
	Orphans int
	// RefMismatches counts objects whose stored reference count differs
	// from the number of cells referencing them.
	RefMismatches int
}

// Clean reports whether the store passed every check.
func (r FsckReport) Clean() bool {
	return len(r.Missing) == 0 && len(r.Corrupt) == 0 && r.Orphans == 0 && r.RefMismatches == 0
}

// FsckBlobs verifies the blob store against the relational state: every
// TBlob cell resolves to an object whose payload reads back checksum-
// clean, every stored object is referenced, and reference counts match
// the cells. Reads happen under the database read lock; a quiescent
// database is not required but writes will block for the duration.
func (db *DB) FsckBlobs() (FsckReport, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var rep FsckReport
	counts := db.blobRefCountsLocked()
	stored := db.blobs.Objects()
	rep.Objects = len(stored)

	checked := make(map[blob.Digest]bool)
	for d, want := range counts {
		rep.Referenced += int(want)
		have, ok := stored[d]
		if !ok {
			rep.Missing = append(rep.Missing, d)
			continue
		}
		if have != want {
			rep.RefMismatches++
		}
		if checked[d] {
			continue
		}
		checked[d] = true
	}
	// Verify payloads once per distinct digest, via the cells that
	// reference them (the handle carries the expected length).
	verified := make(map[blob.Digest]bool)
	for _, tb := range db.state {
		for ci, col := range tb.schema {
			if col.Type != TBlob {
				continue
			}
			for _, row := range tb.rows {
				h := row[ci].(blob.Handle)
				if h.IsZero() || verified[h.Digest] {
					continue
				}
				verified[h.Digest] = true
				data, err := db.blobs.Get(h)
				if err != nil {
					if !errors.Is(err, blob.ErrNotFound) {
						rep.Corrupt = append(rep.Corrupt, h.Digest)
					}
					continue // missing already recorded above
				}
				rep.BytesChecked += int64(len(data))
			}
		}
	}
	for d := range stored {
		if counts[d] == 0 {
			rep.Orphans++
		}
	}
	return rep, nil
}
