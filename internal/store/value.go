// Package store implements the database server of the conferencing system:
// an embedded object-relational store playing the role the paper assigns
// to Oracle (§3, §5.2, Fig. 7). It provides typed tables addressed through
// a catalog, BLOB columns backed by the blob heap, write-ahead logging
// with group commit, crash recovery, secondary hash indexes, and full
// scans. The multimedia schema itself (MULTIMEDIA_OBJECTS_TABLE and the
// per-type object tables) is layered on top by package mediadb.
package store

import (
	"fmt"
	"strconv"

	"mmconf/internal/blob"
	"mmconf/internal/wire"
)

// ColumnType enumerates the value types a column may hold.
type ColumnType uint8

// Column types. TBlob columns store blob.Handle references into the heap;
// the payload itself never enters the relational layer.
const (
	TInt ColumnType = iota
	TFloat
	TString
	TBytes
	TBlob
)

// String returns the type's lowercase name.
func (t ColumnType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	case TBlob:
		return "blob"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// Column is one field of a table schema.
type Column struct {
	Name string
	Type ColumnType
}

// Row is an ordered tuple of column values. Legal dynamic types per
// column type: TInt→int64, TFloat→float64, TString→string, TBytes→[]byte,
// TBlob→blob.Handle. Tables hold rows in this form, and AppendRow is
// how every byte path — the WAL, the snapshot, the replication frame —
// writes one.
type Row []any

// checkRow reports whether row fits schema: its arity and every cell's
// dynamic type.
func checkRow(schema []Column, row Row) error {
	if len(row) != len(schema) {
		return fmt.Errorf("store: row has %d values, schema has %d columns", len(row), len(schema))
	}
	for i, v := range row {
		var ok bool
		switch schema[i].Type {
		case TInt:
			_, ok = v.(int64)
		case TFloat:
			_, ok = v.(float64)
		case TString:
			_, ok = v.(string)
		case TBytes:
			_, ok = v.([]byte)
		case TBlob:
			_, ok = v.(blob.Handle)
		}
		if !ok {
			return fmt.Errorf("store: column %q (%s) cannot hold %T", schema[i].Name, schema[i].Type, v)
		}
	}
	return nil
}

// ownRow copies row and its []byte cells: what a table keeps shares no
// memory with a caller's row or a decoder's buffer, and what it hands
// out shares none with the table. An empty []byte cell comes out nil,
// as DecodeRow reads it.
func ownRow(row Row) Row {
	out := make(Row, len(row))
	for i, v := range row {
		if b, ok := v.([]byte); ok {
			v = append([]byte(nil), b...)
		}
		out[i] = v
	}
	return out
}

// Cell tags: the dynamic type of one encoded cell. cellInvalid is what a
// value of any other type encodes as; DecodeRow accepts no such cell.
const (
	cellInt byte = iota
	cellFloat
	cellString
	cellBytes
	cellBlob
	cellInvalid byte = 0xFF
)

// AppendRow writes row as a cell count and one tagged cell per value. It
// is the one encoding of a store row: the WAL record, the checkpoint
// snapshot and the replication frame all carry rows in it.
func AppendRow(e *wire.BodyEnc, row Row) {
	e.Uvarint(uint64(len(row)))
	for _, c := range row {
		switch v := c.(type) {
		case int64:
			e.Byte(cellInt)
			e.Varint(v)
		case float64:
			e.Byte(cellFloat)
			e.F64(v)
		case string:
			e.Byte(cellString)
			e.String(v)
		case []byte:
			e.Byte(cellBytes)
			e.Bytes(v)
		case blob.Handle:
			e.Byte(cellBlob)
			e.Fixed(v.Digest[:])
			e.Uvarint(uint64(v.Length))
		default:
			e.Byte(cellInvalid)
		}
	}
}

// DecodeRow reads a row AppendRow wrote. Its []byte cells alias d's input,
// as every wire.Dec byte read does; a table copies them before it keeps
// them.
func DecodeRow(d *wire.Dec) (Row, error) {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil, d.Err()
	}
	row := make(Row, 0, min(n, 64))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var c any
		switch tag := d.Byte(); tag {
		case cellInt:
			c = d.Varint()
		case cellFloat:
			c = d.F64()
		case cellString:
			c = d.String()
		case cellBytes:
			c = d.Bytes()
		case cellBlob:
			var h blob.Handle
			d.Fixed(h.Digest[:])
			h.Length = uint32(d.Uvarint())
			c = h
		default:
			return nil, fmt.Errorf("store: row cell has unknown tag %d", tag)
		}
		row = append(row, c)
	}
	return row, d.Err()
}

// indexKey renders a cell of an indexed column — an int64 or a string,
// the two indexable types — as a deterministic index key.
func indexKey(v any) string {
	if i, ok := v.(int64); ok {
		return "i" + strconv.FormatInt(i, 10)
	}
	s, _ := v.(string)
	return "s" + s
}
