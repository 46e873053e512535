package encode

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// EncodeBytesInto interns one row through EncodeRows: a block of one
// row, the form the one-row tests drive.
func (e *Encoder) EncodeBytesInto(ids []int32, values [][]byte) []int32 {
	return e.EncodeRows(ids, values, len(values))
}

// TestEncodeRowsMatchesOneAtATime holds blocks of rows to Encode of
// each value in row-then-column order: blocks whose rows repeat a miss
// of an earlier row, blocks all hits, and blocks whose last row is
// short. Every id and the dictionary in id order must match.
func TestEncodeRowsMatchesOneAtATime(t *testing.T) {
	const width = 3
	rng := rand.New(rand.NewPCG(3, 4))
	e, oracle := NewEncoder("a", "b", "c"), NewEncoder("a", "b", "c")
	for step := 0; step < 400; step++ {
		rows := 1 + rng.IntN(40)
		n := rows * width
		if rng.IntN(4) == 0 {
			n -= 1 + rng.IntN(width-1) // a short last row
		}
		pool := 4 + step/4
		values := make([][]byte, n)
		want := make([]int32, n)
		for i := range values {
			v := fmt.Sprintf("v%d", rng.IntN(pool))
			values[i] = []byte(v)
			want[i] = oracle.Encode(i%width, v)
		}
		got := e.EncodeRows(make([]int32, n), values, width)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: value %d (%s, column %d) got id %d, want %d", step, i, values[i], i%width, got[i], want[i])
			}
		}
	}
	if e.Size() != oracle.Size() {
		t.Fatalf("%d values interned, one at a time interns %d", e.Size(), oracle.Size())
	}
	for id := int32(0); int(id) < oracle.Size(); id++ {
		if got, want := e.Decode(id), oracle.Decode(id); got != want {
			t.Fatalf("id %d is %v, one at a time it is %v", id, got, want)
		}
	}
}

// TestEncodeRowsConcurrent races blocks of mostly new values on one
// encoder: each value gets one id whoever interns it, and it decodes
// back to itself.
func TestEncodeRowsConcurrent(t *testing.T) {
	e := NewEncoder("a", "b")
	var wg sync.WaitGroup
	got := make([][]int32, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			values := make([][]byte, 2*300)
			for i := range values {
				values[i] = []byte(fmt.Sprintf("v%d", (i/2+g*37)%300))
			}
			got[g] = e.EncodeRows(make([]int32, len(values)), values, 2)
			for i, id := range got[g] {
				if a := e.Decode(id); a.Value != string(values[i]) || a.Column != []string{"a", "b"}[i%2] {
					t.Errorf("goroutine %d: value %d decodes to %v, want %s", g, i, a, values[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Size() != 2*300 {
		t.Fatalf("%d values interned, want %d", e.Size(), 2*300)
	}
}
