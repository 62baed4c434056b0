package store

// Delete removes the row with the given id. No program deletes a row:
// the store's tests write opDelete records through it, to drive the
// apply and replay branches that the on-disk format still defines.
func (t *Table) Delete(id uint64) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.db.logAndApply(walRecord{Op: opDelete, Table: t.name, ID: id})
}

// ReplaySkipped reports how many WAL records the last Open skipped
// because they did not decode or no longer applied (see replay). Zero
// in normal operation.
func (db *DB) ReplaySkipped() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replaySkipped
}
