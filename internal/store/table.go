package store

import (
	"fmt"
	"slices"
)

// table is the in-memory state of one relation. All access is mediated by
// the owning DB's lock. A stored row is never written to again: an update
// replaces it whole, so a displaced row belongs to whoever took it out.
type table struct {
	name    string
	schema  []Column
	colIdx  map[string]int
	nextID  uint64
	rows    map[uint64]Row
	indexes map[string]map[string][]uint64 // column -> key -> sorted row ids
}

// checkSchema reports whether a table named name may have schema.
func checkSchema(name string, schema []Column) error {
	if name == "" {
		return fmt.Errorf("store: empty table name")
	}
	if len(schema) == 0 {
		return fmt.Errorf("store: table %q has no columns", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		if c.Name == "" {
			return fmt.Errorf("store: table %q has a column with empty name", name)
		}
		if seen[c.Name] {
			return fmt.Errorf("store: table %q repeats column %q", name, c.Name)
		}
		if c.Type > TBlob {
			return fmt.Errorf("store: table %q column %q has unknown type %v", name, c.Name, c.Type)
		}
		seen[c.Name] = true
	}
	return nil
}

// newTable builds an empty relation over a schema checkSchema accepted.
func newTable(name string, schema []Column) *table {
	ci := make(map[string]int, len(schema))
	for i, c := range schema {
		ci[c.Name] = i
	}
	return &table{
		name:    name,
		schema:  slices.Clone(schema),
		colIdx:  ci,
		nextID:  1,
		rows:    make(map[uint64]Row),
		indexes: make(map[string]map[string][]uint64),
	}
}

// The mutators below apply a change DB.validateLocked has accepted and
// cannot fail.

// insert places a copy of row under id, maintaining indexes.
func (t *table) insert(id uint64, row Row) {
	row = ownRow(row)
	t.rows[id] = row
	if id >= t.nextID {
		t.nextID = id + 1
	}
	t.indexRow(id, row, true)
}

func (t *table) update(id uint64, row Row) {
	t.indexRow(id, t.rows[id], false)
	row = ownRow(row)
	t.rows[id] = row
	t.indexRow(id, row, true)
}

func (t *table) delete(id uint64) {
	t.indexRow(id, t.rows[id], false)
	delete(t.rows, id)
}

// indexRow adds or removes one row from every secondary index.
func (t *table) indexRow(id uint64, row Row, add bool) {
	for col, idx := range t.indexes {
		key := indexKey(row[t.colIdx[col]])
		if add {
			addToIndex(idx, key, id)
			continue
		}
		ids := idx[key]
		if pos, ok := slices.BinarySearch(ids, id); ok {
			if ids = slices.Delete(ids, pos, pos+1); len(ids) == 0 {
				delete(idx, key)
			} else {
				idx[key] = ids
			}
		}
	}
}

// addToIndex files id under key, keeping the id list sorted.
func addToIndex(idx map[string][]uint64, key string, id uint64) {
	ids := idx[key]
	pos, _ := slices.BinarySearch(ids, id)
	idx[key] = slices.Insert(ids, pos, id)
}

// validateIndex checks that createIndex(col) may run, mutating nothing
// (see DB.validateLocked). Every stored row fits the schema, so an int
// or string column yields a key for each of them.
func (t *table) validateIndex(col string) error {
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("store: table %q has no column %q", t.name, col)
	}
	switch t.schema[ci].Type {
	case TInt, TString:
	default:
		return fmt.Errorf("store: table %q column %q (%s) is not indexable", t.name, col, t.schema[ci].Type)
	}
	if _, dup := t.indexes[col]; dup {
		return fmt.Errorf("store: table %q already has an index on %q", t.name, col)
	}
	return nil
}

// createIndex builds a secondary hash index over col from current rows.
func (t *table) createIndex(col string) {
	ci := t.colIdx[col]
	idx := make(map[string][]uint64)
	for id, row := range t.rows {
		addToIndex(idx, indexKey(row[ci]), id)
	}
	t.indexes[col] = idx
}

// Table is the public handle to one relation of a DB.
type Table struct {
	db   *DB
	name string
}

// Schema returns a copy of the table's column definitions.
func (t *Table) Schema() ([]Column, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, err
	}
	return append([]Column(nil), tb.schema...), nil
}

// Check reports whether row fits the table's schema — arity and every
// cell's dynamic type — by the rule Insert and Update apply, writing
// nothing: for rows that arrive from outside and must be refused whole
// before the first of them is stored.
func (t *Table) Check(row Row) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	return checkRow(tb.schema, row)
}

// Insert appends a row, returning its assigned id.
func (t *Table) Insert(row Row) (uint64, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return 0, err
	}
	id := tb.nextID
	if err := t.db.logAndApply(walRecord{Op: opInsert, Table: t.name, ID: id, Vals: row}); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertWithID appends a row under a caller-chosen id — the replication
// path, where a standby materializes rows under the ids the room's owner
// assigned so object references in the event log stay valid after
// failover. Inserting an id that already exists is an error; the table's
// auto-assign counter advances past adopted ids, so later Inserts never
// collide with them.
func (t *Table) InsertWithID(id uint64, row Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.db.logAndApply(walRecord{Op: opInsert, Table: t.name, ID: id, Vals: row})
}

// Get fetches the row with the given id; ok is false if it does not exist.
func (t *Table) Get(id uint64) (Row, bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, false, err
	}
	row, ok := tb.rows[id]
	if !ok {
		return nil, false, nil
	}
	return ownRow(row), true, nil
}

// Update replaces the row with the given id.
func (t *Table) Update(id uint64, row Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.db.logAndApply(walRecord{Op: opUpdate, Table: t.name, ID: id, Vals: row})
}

// UpdateReturningOld is Update that also returns the version it
// displaced, read in the same critical section. The blob references the
// old row held are the store's to release, as for Update; the returned
// row is for a caller that wants to see what it replaced.
func (t *Table) UpdateReturningOld(id uint64, row Row) (Row, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, err
	}
	old := tb.rows[id]
	if err := t.db.logAndApply(walRecord{Op: opUpdate, Table: t.name, ID: id, Vals: row}); err != nil {
		return nil, err
	}
	return old, nil
}

// Len returns the number of rows.
func (t *Table) Len() (int, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return 0, err
	}
	return len(tb.rows), nil
}

// Scan visits every row in ascending id order; fn returning false stops
// the scan early.
func (t *Table) Scan(fn func(id uint64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	for _, id := range tb.sortedIDs() {
		if !fn(id, ownRow(tb.rows[id])) {
			return nil
		}
	}
	return nil
}

// sortedIDs lists the table's row ids in ascending order.
func (t *table) sortedIDs() []uint64 {
	ids := make([]uint64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// CreateIndex builds (and logs) a secondary index over an int or string
// column.
func (t *Table) CreateIndex(col string) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.db.logAndApply(walRecord{Op: opCreateIndex, Table: t.name, Col: col})
}

// LookupString returns the ids of rows whose indexed string column equals v.
func (t *Table) LookupString(col string, v string) ([]uint64, error) {
	return t.lookup(col, v)
}

func (t *Table) lookup(col string, v any) ([]uint64, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, err
	}
	idx, ok := tb.indexes[col]
	if !ok {
		return nil, fmt.Errorf("store: table %q has no index on %q", t.name, col)
	}
	return append([]uint64(nil), idx[indexKey(v)]...), nil
}
