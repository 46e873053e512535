package encode

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"macrobase/internal/core"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder("device", "version")
	a := e.Encode(0, "B264")
	b := e.Encode(1, "2.26.3")
	if a == b {
		t.Fatal("distinct pairs share an id")
	}
	if got := e.Encode(0, "B264"); got != a {
		t.Fatal("re-encoding changed id")
	}
	// Same value in a different column is a different attribute.
	if got := e.Encode(1, "B264"); got == a {
		t.Fatal("column not part of identity")
	}
	attr := e.Decode(a)
	if attr.Column != "device" || attr.Value != "B264" {
		t.Errorf("decoded %+v", attr)
	}
	if attr.String() != "device=B264" {
		t.Errorf("String() = %q", attr.String())
	}
	if e.Size() != 3 {
		t.Errorf("size = %d", e.Size())
	}
}

func TestDecodeUnknown(t *testing.T) {
	e := NewEncoder("c")
	if got := e.Decode(42); got != (core.Attribute{}) {
		t.Errorf("unknown id decoded to %+v", got)
	}
	if got := e.Decode(-1); got != (core.Attribute{}) {
		t.Errorf("negative id decoded to %+v", got)
	}
}

func TestUnknownColumnName(t *testing.T) {
	e := NewEncoder() // no column names
	id := e.Encode(3, "x")
	if got := e.Decode(id).Column; got != "attr3" {
		t.Errorf("generated column = %q", got)
	}
	// A negative column panics, as a slice index does, and leaves the
	// encoder unlocked.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Encode(-2, ...) did not panic")
			}
		}()
		e.Encode(-2, "y")
	}()
	if got := e.Encode(3, "y"); got != id+1 {
		t.Errorf("after the panic, a new value got id %d, want %d", got, id+1)
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	e := NewEncoder("a", "b", "c")
	ids := e.EncodeInto(make([]int32, 3), []string{"x", "y", "z"})
	if len(ids) != 3 {
		t.Fatal("wrong id count")
	}
	attrs := e.DecodeAll(ids)
	if attrs[2].Column != "c" || attrs[2].Value != "z" {
		t.Errorf("DecodeAll = %+v", attrs)
	}
}

func TestDecorate(t *testing.T) {
	e := NewEncoder("col")
	id := e.Encode(0, "v")
	exps := []core.Explanation{{ItemIDs: []int32{id}}}
	e.Decorate(exps)
	if len(exps[0].Attributes) != 1 || exps[0].Attributes[0].Value != "v" {
		t.Errorf("decorated = %+v", exps[0])
	}
}

func TestEncoderConcurrent(t *testing.T) {
	e := NewEncoder("c")
	var wg sync.WaitGroup
	ids := make([][]int32, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]int32, 100)
			for i := 0; i < 100; i++ {
				ids[g][i] = e.Encode(0, string(rune('a'+i%26)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := 0; i < 100; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatal("concurrent encoding produced inconsistent ids")
			}
		}
	}
	if e.Size() != 26 {
		t.Errorf("size = %d, want 26", e.Size())
	}
}

// TestEncodeIntoBatchedReadLock: the batched fast path must agree with
// per-value Encode, including when some values are new, and must stay
// correct under concurrent mixed read/write batches.
func TestEncodeIntoBatchedReadLock(t *testing.T) {
	e := NewEncoder("a", "b", "c")
	warm := e.EncodeInto(make([]int32, 3), []string{"x", "y", "z"})
	ids := e.EncodeInto(make([]int32, 3), []string{"x", "y", "z"})
	for i := range warm {
		if ids[i] != warm[i] {
			t.Fatalf("EncodeInto[%d] = %d, want %d", i, ids[i], warm[i])
		}
	}
	// Half-hit batch: "x" interned, the rest new.
	mixed := e.EncodeInto(make([]int32, 3), []string{"x", "new1", "new2"})
	if mixed[0] != warm[0] {
		t.Fatalf("hit id changed: %d != %d", mixed[0], warm[0])
	}
	if mixed[1] == mixed[2] || mixed[1] < 0 || mixed[2] < 0 {
		t.Fatalf("misses not interned distinctly: %v", mixed)
	}
	if got := e.Encode(1, "new1"); got != mixed[1] {
		t.Fatalf("Encode(1, new1) = %d, want %d", got, mixed[1])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int32, 3)
			for i := 0; i < 500; i++ {
				vals := []string{"x", "y", fmt.Sprintf("v%d", i%37)}
				e.EncodeInto(ids, vals)
				if e.Decode(ids[2]).Value != vals[2] {
					t.Errorf("round-trip mismatch for %q", vals[2])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEncodeBytesIntoMatchesEncodeInto: the []byte form assigns the ids
// the string form does, in the same order, hits and misses alike.
func TestEncodeBytesIntoMatchesEncodeInto(t *testing.T) {
	rows := [][]string{{"x", "y"}, {"x", "z"}, {"w", "y"}, {"", "z"}, {"w", "x"}}
	byStr, byBytes := NewEncoder("a", "b"), NewEncoder("a", "b")
	for _, row := range rows {
		want := byStr.EncodeInto(make([]int32, 2), row)
		got := byBytes.EncodeBytesInto(make([]int32, 2), [][]byte{[]byte(row[0]), []byte(row[1])})
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("row %q: EncodeBytesInto %v, EncodeInto %v", row, got, want)
		}
	}
	if byBytes.Size() != byStr.Size() {
		t.Fatalf("%d values interned, EncodeInto interned %d", byBytes.Size(), byStr.Size())
	}
}

// TestEncodeMatchesOracle interleaves Encode, EncodeInto and
// EncodeBytesInto over three columns and holds every id, and every
// Decode, to a map keyed by (column, value) that numbers pairs in the
// order they first appear. The values include the empty string, and
// every value turns up in more than one column.
func TestEncodeMatchesOracle(t *testing.T) {
	type pair struct {
		col int
		val string
	}
	cols := []string{"a", "b", "c"}
	e := NewEncoder(cols...)
	oracle := make(map[pair]int32)
	want := func(col int, val string) int32 {
		id, ok := oracle[pair{col, val}]
		if !ok {
			id = int32(len(oracle))
			oracle[pair{col, val}] = id
		}
		return id
	}
	vals := []string{"", "x", "y", "dev7", "0", "é"}
	for i := 0; i < 200; i++ {
		vals = append(vals, "v"+strconv.Itoa(i))
	}
	rng := rand.New(rand.NewPCG(9, 10))
	// The pool widens as the steps go on, so new values keep arriving.
	value := func(step int) string { return vals[rng.IntN(min(len(vals), 8+step/10))] }
	ids := make([]int32, len(cols))
	for i := 0; i < 3000; i++ {
		row := []string{value(i), value(i), value(i)}
		switch rng.IntN(3) {
		case 0:
			col := rng.IntN(len(cols))
			if got, w := e.Encode(col, row[col]), want(col, row[col]); got != w {
				t.Fatalf("step %d: Encode(%d, %q) = %d, want %d", i, col, row[col], got, w)
			}
			continue
		case 1:
			e.EncodeInto(ids, row)
		default:
			e.EncodeBytesInto(ids, [][]byte{[]byte(row[0]), []byte(row[1]), []byte(row[2])})
		}
		for col, v := range row {
			if w := want(col, v); ids[col] != w {
				t.Fatalf("step %d: column %d value %q got id %d, want %d", i, col, v, ids[col], w)
			}
		}
	}
	if e.Size() != len(oracle) {
		t.Fatalf("%d values interned, the oracle has %d", e.Size(), len(oracle))
	}
	for p, id := range oracle {
		if got := e.Decode(id); got.Column != cols[p.col] || got.Value != p.val {
			t.Errorf("Decode(%d) = %+v, want %s=%q", id, got, cols[p.col], p.val)
		}
	}
}

// TestEncoderBytesPerValue bounds the dictionary's own memory: the heap
// it holds for 1M distinct values of one column, the values' strings
// not counted, is at most 100 bytes a value. Two indexes of every value
// held about 165.
func TestEncoderBytesPerValue(t *testing.T) {
	const n = 1_000_000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Itoa(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEncoder("id")
	for _, v := range vals {
		e.Encode(0, v)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(vals)
	if e.Size() != n {
		t.Fatalf("%d values interned, want %d", e.Size(), n)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f bytes a value at %d values", per, n)
	if per > 100 {
		t.Fatalf("the dictionary holds %.1f bytes a value at %d values, want <= 100", per, n)
	}
}
