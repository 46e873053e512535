// Package encode interns categorical attribute values as dense int32
// identifiers. MacroBase encodes attributes at ingest time so that the
// explanation data structures (AMC sketches, FP-trees, M-CPS-trees)
// operate on machine integers rather than strings; identifiers are
// decoded back to (column, value) pairs only at presentation time.
//
// The ingest readers intern through one call, Encoder.EncodeRows, which
// takes a block of rows: one read lock for every lookup of the block,
// then one write lock for its misses, interned in row-then-column order
// so that ids are those of interning one value at a time. The readers
// bound a block to a few hundred rows, which bounds how long a hold
// keeps a writer, or the readers behind a waiting writer, out.
package encode

import (
	"strconv"
	"sync"

	"macrobase/internal/core"
)

// Encoder maps (column index, string value) pairs to dense int32 ids
// and back. It is safe for concurrent use; encoding is lock-guarded. A
// pipeline interns through one Encoder, so every shard's sketches and
// trees hold the same ids for the same values. A column is an index,
// 0 or more: a negative one panics, as a slice index does.
type Encoder struct {
	mu      sync.RWMutex
	columns []string
	keys    []key // by id, for Decode
	// byVal is the one index: per column, a plain string-keyed map, so
	// a []byte value is looked up without materializing a string (the
	// compiler elides the conversion in a direct map[string]T index
	// expression). Grown by intern and EncodeRows.
	byVal []map[string]int32
}

type key struct {
	col int
	val string
}

// NewEncoder returns an encoder whose column names are used when
// decoding ids into core.Attribute values. Unknown column indexes
// decode with a generated name.
func NewEncoder(columns ...string) *Encoder {
	return &Encoder{columns: columns}
}

// Columns returns the configured column names.
func (e *Encoder) Columns() []string { return e.columns }

// Encode interns value for the given attribute column and returns its
// id. Equal (col, value) pairs always receive equal ids. The
// already-interned case — the steady state of every ingest loop — is
// served under the read lock, so concurrent shard ingest does not
// serialize on the encoder; only genuinely new values pay for the
// write lock.
func (e *Encoder) Encode(col int, value string) int32 {
	e.mu.RLock()
	// A negative col skips the lookup, so that intern panics on it with
	// the lock released.
	if uint(col) < uint(len(e.byVal)) {
		if id, ok := e.byVal[col][value]; ok {
			e.mu.RUnlock()
			return id
		}
	}
	e.mu.RUnlock()
	return e.intern(col, value)
}

// intern is the write-lock slow path for a probably-new value.
func (e *Encoder) intern(col int, val string) int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.byVal) <= col {
		e.byVal = append(e.byVal, make(map[string]int32))
	}
	if id, ok := e.byVal[col][val]; ok {
		return id
	}
	return e.add(col, val)
}

// add gives val, new in col, the next id; e.mu is held for writing and
// col's index exists.
func (e *Encoder) add(col int, val string) int32 {
	id := int32(len(e.keys))
	e.byVal[col][val] = id
	e.keys = append(e.keys, key{col, val})
	return id
}

// EncodeInto encodes one value per configured column into ids (which
// must have len(values) slots) and returns it. The whole batch is
// first attempted under a single read lock — one lock round-trip per
// row instead of one per attribute — and only the missing values fall
// back to individual interning.
func (e *Encoder) EncodeInto(ids []int32, values []string) []int32 {
	missing := false
	e.mu.RLock()
	for i, v := range values {
		id := int32(-1)
		if i < len(e.byVal) {
			if got, ok := e.byVal[i][v]; ok {
				id = got
			}
		}
		missing = missing || id < 0
		ids[i] = id
	}
	e.mu.RUnlock()
	if missing {
		for i, v := range values {
			if ids[i] < 0 {
				ids[i] = e.intern(i, v)
			}
		}
	}
	return ids
}

// EncodeRows interns a block of rows whose values are still in []byte
// form (a CSV block's field bytes, an MBR1 window's row bodies): values
// holds width values a row, row after row, so values[i] is a value of
// column i%width, and its id goes to ids[i], which must have
// len(values) slots. The last row may be short: a bad row's values
// before its failure are interned too. It is the one intern call of the
// CSV and MBR1 readers.
//
// Every lookup runs under one read lock and materializes no string for
// a value already interned. The misses are then interned under one
// write lock in row-then-column order, each looked up again first (an
// earlier row of the block, or another goroutine, may have interned
// it), so every id is the one interning the values one at a time, in
// order, gives. A hold lasts as long as its block's lookups, so the
// caller bounds the block: the ingest readers pass a few hundred rows
// at most. width must be positive.
func (e *Encoder) EncodeRows(ids []int32, values [][]byte, width int) []int32 {
	if width <= 0 {
		panic("encode: EncodeRows width " + strconv.Itoa(width))
	}
	missing := false
	e.mu.RLock()
	for r := 0; r < len(values); r += width {
		for col, v := range values[r:min(r+width, len(values))] {
			id := int32(-1)
			if col < len(e.byVal) {
				if got, ok := e.byVal[col][string(v)]; ok {
					id = got
				}
			}
			missing = missing || id < 0
			ids[r+col] = id
		}
	}
	e.mu.RUnlock()
	if !missing {
		return ids
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.byVal) < min(width, len(values)) {
		e.byVal = append(e.byVal, make(map[string]int32))
	}
	for r := 0; r < len(values); r += width {
		for col, v := range values[r:min(r+width, len(values))] {
			if ids[r+col] >= 0 {
				continue
			}
			id, ok := e.byVal[col][string(v)]
			if !ok {
				id = e.add(col, string(v))
			}
			ids[r+col] = id
		}
	}
	return ids
}

// Decode returns the attribute for id. Ids not produced by this
// encoder yield a zero Attribute.
func (e *Encoder) Decode(id int32) core.Attribute {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || int(id) >= len(e.keys) {
		return core.Attribute{}
	}
	k := e.keys[id]
	col := "attr" + strconv.Itoa(k.col)
	if k.col < len(e.columns) {
		col = e.columns[k.col]
	}
	return core.Attribute{Column: col, Value: k.val}
}

// DecodeAll decodes each id in ids.
func (e *Encoder) DecodeAll(ids []int32) []core.Attribute {
	out := make([]core.Attribute, len(ids))
	for i, id := range ids {
		out[i] = e.Decode(id)
	}
	return out
}

// Decorate fills Explanation.Attributes for each explanation in exps,
// in place, and returns exps for chaining.
func (e *Encoder) Decorate(exps []core.Explanation) []core.Explanation {
	for i := range exps {
		exps[i].Attributes = e.DecodeAll(exps[i].ItemIDs)
	}
	return exps
}

// Size reports how many distinct attribute values have been interned.
func (e *Encoder) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.keys)
}
