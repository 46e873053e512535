// Package encode interns categorical attribute values as dense int32
// identifiers. MacroBase encodes attributes at ingest time so that the
// explanation data structures (AMC sketches, FP-trees, M-CPS-trees)
// operate on machine integers rather than strings; identifiers are
// decoded back to (column, value) pairs only at presentation time.
package encode

import (
	"sync"

	"macrobase/internal/core"
)

// Encoder maps (column index, string value) pairs to dense int32 ids
// and back. It is safe for concurrent use; encoding is lock-guarded
// (shared-nothing pipelines typically use one Encoder per partition
// and merge at presentation).
type Encoder struct {
	mu      sync.RWMutex
	byKey   map[key]int32
	columns []string
	keys    []key
	// byVal indexes ids per column with plain string-keyed maps so
	// EncodeBytes can look a []byte value up without materializing a
	// string: the compiler elides the string conversion in a direct
	// map[string]T index expression, which it cannot do for the
	// struct-keyed byKey map. Grown lazily by intern.
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
	return &Encoder{byKey: make(map[key]int32), columns: columns}
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
	k := key{col, value}
	e.mu.RLock()
	id, ok := e.byKey[k]
	e.mu.RUnlock()
	if ok {
		return id
	}
	return e.intern(k)
}

// intern is the write-lock slow path for a probably-new key.
func (e *Encoder) intern(k key) int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id, ok := e.byKey[k]; ok {
		return id
	}
	id := int32(len(e.keys))
	e.byKey[k] = id
	e.keys = append(e.keys, k)
	if k.col >= 0 {
		for len(e.byVal) <= k.col {
			e.byVal = append(e.byVal, nil)
		}
		if e.byVal[k.col] == nil {
			e.byVal[k.col] = make(map[string]int32)
		}
		e.byVal[k.col][k.val] = id
	}
	return id
}

// EncodeBytes is Encode for a value still in []byte form (a binary
// wire decoder's scratch): the already-interned fast path performs a
// direct map lookup without allocating a string, so steady-state
// binary ingest never touches the allocator; only genuinely new values
// pay for the string copy and the write lock.
func (e *Encoder) EncodeBytes(col int, value []byte) int32 {
	e.mu.RLock()
	if col >= 0 && col < len(e.byVal) {
		if id, ok := e.byVal[col][string(value)]; ok {
			e.mu.RUnlock()
			return id
		}
	}
	e.mu.RUnlock()
	return e.intern(key{col, string(value)})
}

// EncodeAll encodes one value per configured column, in order.
func (e *Encoder) EncodeAll(values ...string) []int32 {
	return e.EncodeInto(make([]int32, len(values)), values)
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
		id, ok := e.byKey[key{i, v}]
		if !ok {
			id = -1
			missing = true
		}
		ids[i] = id
	}
	e.mu.RUnlock()
	if missing {
		for i := range values {
			if ids[i] < 0 {
				ids[i] = e.intern(key{i, values[i]})
			}
		}
	}
	return ids
}

// EncodeBytesInto is EncodeInto for values still in []byte form (a CSV
// reader's field bytes): one read lock for the row, no string for a
// value already interned.
func (e *Encoder) EncodeBytesInto(ids []int32, values [][]byte) []int32 {
	missing := false
	e.mu.RLock()
	for i, v := range values {
		id := int32(-1)
		if i < len(e.byVal) {
			if got, ok := e.byVal[i][string(v)]; ok {
				id = got
			}
		}
		missing = missing || id < 0
		ids[i] = id
	}
	e.mu.RUnlock()
	if missing {
		for i := range values {
			if ids[i] < 0 {
				ids[i] = e.intern(key{i, string(values[i])})
			}
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
	col := "attr" + itoa(k.col)
	if k.col >= 0 && k.col < len(e.columns) {
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

// itoa avoids importing strconv for a two-line helper used only on
// unknown columns.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
