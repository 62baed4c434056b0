package store

import (
	"fmt"
	"sort"
)

// table is the in-memory state of one relation. All access is mediated by
// the owning DB's lock.
type table struct {
	name    string
	schema  []Column
	colIdx  map[string]int
	nextID  uint64
	rows    map[uint64][]value
	indexes map[string]map[string][]uint64 // column -> key -> sorted row ids
}

func newTable(name string, schema []Column) (*table, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty table name")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("store: table %q has no columns", name)
	}
	ci := make(map[string]int, len(schema))
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("store: table %q has a column with empty name", name)
		}
		if _, dup := ci[c.Name]; dup {
			return nil, fmt.Errorf("store: table %q repeats column %q", name, c.Name)
		}
		ci[c.Name] = i
	}
	return &table{
		name:    name,
		schema:  schema,
		colIdx:  ci,
		nextID:  1,
		rows:    make(map[uint64][]value),
		indexes: make(map[string]map[string][]uint64),
	}, nil
}

// insert places vals under id, maintaining indexes. Caller assigns id.
func (t *table) insert(id uint64, vals []value) error {
	if _, dup := t.rows[id]; dup {
		return fmt.Errorf("store: table %q: duplicate row id %d", t.name, id)
	}
	t.rows[id] = vals
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return t.indexRow(id, vals, true)
}

func (t *table) update(id uint64, vals []value) error {
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	if err := t.indexRow(id, old, false); err != nil {
		return err
	}
	t.rows[id] = vals
	return t.indexRow(id, vals, true)
}

func (t *table) delete(id uint64) error {
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	if err := t.indexRow(id, old, false); err != nil {
		return err
	}
	delete(t.rows, id)
	return nil
}

// indexRow adds or removes one row from every secondary index.
func (t *table) indexRow(id uint64, vals []value, add bool) error {
	for col, idx := range t.indexes {
		ci := t.colIdx[col]
		key, err := indexKey(vals[ci])
		if err != nil {
			return err
		}
		if add {
			ids := idx[key]
			pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
			ids = append(ids, 0)
			copy(ids[pos+1:], ids[pos:])
			ids[pos] = id
			idx[key] = ids
		} else {
			ids := idx[key]
			pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
			if pos < len(ids) && ids[pos] == id {
				idx[key] = append(ids[:pos], ids[pos+1:]...)
				if len(idx[key]) == 0 {
					delete(idx, key)
				}
			}
		}
	}
	return nil
}

// validateRow dry-runs the index maintenance an insert/update of vals
// would do, mutating nothing (see DB.validateLocked).
func (t *table) validateRow(vals []value) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("store: table %q: row has %d values, schema has %d columns",
			t.name, len(vals), len(t.schema))
	}
	for col := range t.indexes {
		if _, err := indexKey(vals[t.colIdx[col]]); err != nil {
			return err
		}
	}
	return nil
}

// validateIndex checks that createIndex(col) would succeed, mutating
// nothing (see DB.validateLocked).
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
	for _, vals := range t.rows {
		if _, err := indexKey(vals[ci]); err != nil {
			return err
		}
	}
	return nil
}

// createIndex builds a secondary hash index over col from current rows.
func (t *table) createIndex(col string) error {
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
	idx := make(map[string][]uint64)
	for id, vals := range t.rows {
		key, err := indexKey(vals[ci])
		if err != nil {
			return err
		}
		ids := idx[key]
		pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
		ids = append(ids, 0)
		copy(ids[pos+1:], ids[pos:])
		ids[pos] = id
		idx[key] = ids
	}
	t.indexes[col] = idx
	return nil
}

// Table is the public handle to one relation of a DB.
type Table struct {
	db   *DB
	name string
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

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
	_, err = encodeRow(tb.schema, row)
	return err
}

// Insert appends a row, returning its assigned id.
func (t *Table) Insert(row Row) (uint64, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return 0, err
	}
	vals, err := encodeRow(tb.schema, row)
	if err != nil {
		return 0, err
	}
	id := tb.nextID
	rec := walRecord{Op: opInsert, Table: t.name, ID: id, Vals: vals}
	if err := t.db.logAndApply(rec); err != nil {
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
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	vals, err := encodeRow(tb.schema, row)
	if err != nil {
		return err
	}
	return t.db.logAndApply(walRecord{Op: opInsert, Table: t.name, ID: id, Vals: vals})
}

// Get fetches the row with the given id; ok is false if it does not exist.
func (t *Table) Get(id uint64) (Row, bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, false, err
	}
	vals, ok := tb.rows[id]
	if !ok {
		return nil, false, nil
	}
	return decodeRow(vals), true, nil
}

// Update replaces the row with the given id.
func (t *Table) Update(id uint64, row Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	if _, ok := tb.rows[id]; !ok {
		return fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	vals, err := encodeRow(tb.schema, row)
	if err != nil {
		return err
	}
	return t.db.logAndApply(walRecord{Op: opUpdate, Table: t.name, ID: id, Vals: vals})
}

// UpdateReturningOld replaces the row with the given id and returns the
// version it displaced, in one critical section. Callers that must
// release resources the old row held (blob references, most notably) use
// this instead of Get-then-Update: two racing replacements of the same
// row each observe a distinct predecessor, so each old reference is
// released exactly once.
func (t *Table) UpdateReturningOld(id uint64, row Row) (Row, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, err
	}
	oldVals, ok := tb.rows[id]
	if !ok {
		return nil, fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	old := decodeRow(oldVals)
	vals, err := encodeRow(tb.schema, row)
	if err != nil {
		return nil, err
	}
	if err := t.db.logAndApply(walRecord{Op: opUpdate, Table: t.name, ID: id, Vals: vals}); err != nil {
		return nil, err
	}
	return old, nil
}

// Delete removes the row with the given id.
func (t *Table) Delete(id uint64) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	if _, ok := tb.rows[id]; !ok {
		return fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	return t.db.logAndApply(walRecord{Op: opDelete, Table: t.name, ID: id})
}

// DeleteReturningOld removes the row with the given id and returns the
// deleted version, in one critical section — the delete-side counterpart
// of UpdateReturningOld, for callers that release the row's blob
// references afterwards.
func (t *Table) DeleteReturningOld(id uint64) (Row, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return nil, err
	}
	oldVals, ok := tb.rows[id]
	if !ok {
		return nil, fmt.Errorf("store: table %q: no row %d", t.name, id)
	}
	old := decodeRow(oldVals)
	if err := t.db.logAndApply(walRecord{Op: opDelete, Table: t.name, ID: id}); err != nil {
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
	ids := make([]uint64, 0, len(tb.rows))
	for id := range tb.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(id, decodeRow(tb.rows[id])) {
			return nil
		}
	}
	return nil
}

// CreateIndex builds (and logs) a secondary index over an int or string
// column.
func (t *Table) CreateIndex(col string) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	tb, err := t.db.tableLocked(t.name)
	if err != nil {
		return err
	}
	ci, ok := tb.colIdx[col]
	if !ok {
		return fmt.Errorf("store: table %q has no column %q", t.name, col)
	}
	switch tb.schema[ci].Type {
	case TInt, TString:
	default:
		return fmt.Errorf("store: table %q column %q (%s) is not indexable", t.name, col, tb.schema[ci].Type)
	}
	if _, dup := tb.indexes[col]; dup {
		return fmt.Errorf("store: table %q already has an index on %q", t.name, col)
	}
	return t.db.logAndApply(walRecord{Op: opCreateIndex, Table: t.name, Col: col})
}

// LookupInt returns the ids of rows whose indexed int column equals v.
func (t *Table) LookupInt(col string, v int64) ([]uint64, error) {
	return t.lookup(col, value{Kind: TInt, I: v})
}

// LookupString returns the ids of rows whose indexed string column equals v.
func (t *Table) LookupString(col string, v string) ([]uint64, error) {
	return t.lookup(col, value{Kind: TString, S: v})
}

func (t *Table) lookup(col string, v value) ([]uint64, error) {
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
	key, err := indexKey(v)
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), idx[key]...), nil
}
