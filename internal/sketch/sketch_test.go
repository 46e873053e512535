package sketch

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// zipfStream generates a skewed item stream for heavy-hitter tests.
func zipfStream(n, universe int, seed uint64) []int32 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	z := rand.NewZipf(rng, 1.3, 1, uint64(universe-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

func TestAMCExactWhenSmall(t *testing.T) {
	a := NewAMC[int32](100, 0.01)
	e := NewExact[int32]()
	for i := 0; i < 1000; i++ {
		it := int32(i % 50)
		a.Observe(it, 1)
		e.Observe(it, 1)
	}
	a.Maintain() // no-op: 50 items < stable size
	e.ForEach(func(item int32, want float64) {
		got, ok := a.Count(item)
		if !ok || got != want {
			t.Fatalf("item %d: got (%v,%v), want %v", item, got, ok, want)
		}
	})
	if a.wi != 0 {
		t.Errorf("error bound = %v, want 0", a.wi)
	}
}

func TestAMCOverestimatesWithinBound(t *testing.T) {
	const n, stable = 50_000, 64
	stream := zipfStream(n, 10_000, 42)
	a := NewAMC[int32](stable, 0.01)
	e := NewExact[int32]()
	for i, it := range stream {
		a.Observe(it, 1)
		e.Observe(it, 1)
		if i%1000 == 999 {
			a.Maintain()
		}
	}
	bound := float64(n) / float64(stable)
	a.ForEach(func(item int32, got float64) {
		truth, _ := e.Count(item)
		if got < truth-1e-9 {
			t.Fatalf("item %d: estimate %v below truth %v", item, got, truth)
		}
		if got-truth > bound {
			t.Fatalf("item %d: error %v exceeds n/k = %v", item, got-truth, bound)
		}
	})
}

func TestAMCMaintainPrunesToStableSize(t *testing.T) {
	a := NewAMC[int32](10, 0.01)
	for i := 0; i < 100; i++ {
		a.Observe(int32(i), float64(i+1))
	}
	if a.Len() != 100 {
		t.Fatalf("pre-maintain len = %d", a.Len())
	}
	a.Maintain()
	if a.Len() != 10 {
		t.Fatalf("post-maintain len = %d, want 10", a.Len())
	}
	// Survivors are the 10 largest counts (91..100); max discarded 90.
	if a.wi != 90 {
		t.Errorf("wi = %v, want 90", a.wi)
	}
	for i := 91; i <= 100; i++ {
		if _, ok := a.Count(int32(i - 1)); !ok {
			t.Errorf("expected survivor %d missing", i-1)
		}
	}
	// Readmitted item seeds at wi + c.
	a.Observe(int32(5), 1)
	if got, _ := a.Count(int32(5)); got != 91 {
		t.Errorf("readmitted count = %v, want 91", got)
	}
}

func TestAMCMaintainTies(t *testing.T) {
	a := NewAMC[int32](2, 0.01)
	for i := 0; i < 5; i++ {
		a.Observe(int32(i), 7) // all equal counts
	}
	a.Maintain()
	if a.Len() != 2 {
		t.Fatalf("len = %d, want 2 after tie-broken maintenance", a.Len())
	}
	if a.wi != 7 {
		t.Errorf("wi = %v, want 7", a.wi)
	}
}

func TestAMCDecay(t *testing.T) {
	a := NewAMC[int32](10, 0.5)
	a.Observe(1, 8)
	a.Observe(2, 4)
	a.Decay()
	if got, _ := a.Count(1); got != 4 {
		t.Errorf("count = %v, want 4", got)
	}
	if got, _ := a.Count(2); got != 2 {
		t.Errorf("count = %v, want 2", got)
	}
	a.DecayBy(0.5)
	if got, _ := a.Count(1); got != 2 {
		t.Errorf("count after DecayBy = %v, want 2", got)
	}
}

func TestAMCOverestimateProperty(t *testing.T) {
	f := func(items []uint8, seed uint64) bool {
		a := NewAMC[int32](4, 0.01)
		e := NewExact[int32]()
		for i, raw := range items {
			it := int32(raw % 16)
			a.Observe(it, 1)
			e.Observe(it, 1)
			if i%7 == 0 {
				a.Maintain()
			}
		}
		ok := true
		a.ForEach(func(item int32, got float64) {
			truth, _ := e.Count(item)
			if got < truth-1e-9 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func testSpaceSavingGuarantee(t *testing.T, observe func(int32, float64), count func(int32) (float64, bool)) {
	t.Helper()
	const n, k = 30_000, 64
	stream := zipfStream(n, 5000, 7)
	e := NewExact[int32]()
	for _, it := range stream {
		observe(it, 1)
		e.Observe(it, 1)
	}
	bound := float64(n) / float64(k)
	// Every monitored estimate overestimates truth by at most n/k,
	// and every item with true count > n/k is monitored.
	e.ForEach(func(item int32, truth float64) {
		got, ok := count(item)
		if truth > bound && !ok {
			t.Fatalf("heavy item %d (count %v) not monitored", item, truth)
		}
		if ok && (got < truth-1e-9 || got-truth > bound+1e-9) {
			t.Fatalf("item %d: estimate %v vs truth %v (bound %v)", item, got, truth, bound)
		}
	})
}

func TestSpaceSavingHeapGuarantee(t *testing.T) {
	s := NewSpaceSavingHeap[int32](64)
	testSpaceSavingGuarantee(t, s.Observe, s.Count)
	if s.Len() != 64 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSpaceSavingListGuarantee(t *testing.T) {
	s := NewSpaceSavingList[int32](64)
	testSpaceSavingGuarantee(t, s.Observe, s.Count)
	if s.Len() != 64 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSpaceSavingListOrderMaintained(t *testing.T) {
	s := NewSpaceSavingList[int32](8)
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 2000; i++ {
		s.Observe(int32(rng.IntN(12)), rng.Float64()*3)
		if i%100 == 0 {
			s.Decay(0.9)
		}
		// Verify ascending order invariant.
		prev := math.Inf(-1)
		for n := s.head; n != nil; n = n.next {
			if n.count < prev-1e-12 {
				t.Fatalf("list out of order at step %d", i)
			}
			prev = n.count
		}
	}
}

func TestSpaceSavingVariantsAgree(t *testing.T) {
	stream := zipfStream(20_000, 2000, 99)
	h := NewSpaceSavingHeap[int32](32)
	l := NewSpaceSavingList[int32](32)
	for _, it := range stream {
		h.Observe(it, 1)
		l.Observe(it, 1)
	}
	// Top-5 heavy hitters should match between variants.
	he := byCount(func(f func(int32, float64)) {
		for _, e := range h.items {
			f(e.item, e.count)
		}
	})
	le := byCount(func(f func(int32, float64)) {
		for n := l.tail; n != nil; n = n.prev {
			f(n.item, n.count)
		}
	})
	top := map[int32]bool{}
	for i := 0; i < 5; i++ {
		top[he[i].item] = true
	}
	match := 0
	for i := 0; i < 5; i++ {
		if top[le[i].item] {
			match++
		}
	}
	if match < 4 {
		t.Errorf("variants disagree on top items: %d/5 overlap", match)
	}
}

func TestExactCounter(t *testing.T) {
	e := NewExact[string]()
	e.Observe("a", 2)
	e.Observe("b", 1)
	e.Observe("a", 3)
	if got, _ := e.Count("a"); got != 5 {
		t.Errorf("a = %v", got)
	}
	if e.Total() != 6 {
		t.Errorf("total = %v", e.Total())
	}
	e.Decay(0.5)
	if got, _ := e.Count("a"); got != 2.5 {
		t.Errorf("decayed a = %v", got)
	}
	ents := byCount(e.ForEach)
	if len(ents) != 2 || ents[0].item != "a" {
		t.Errorf("entries = %v", ents)
	}
}

func TestSketchConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewAMC[int32](0, 0.1) },
		func() { NewAMC[int32](5, -0.1) },
		func() { NewSpaceSavingHeap[int32](0) },
		func() { NewSpaceSavingList[int32](0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Exact is an exact (unbounded) counter, the accuracy oracle of the
// sketch tests.
type Exact[K comparable] struct {
	counts map[K]float64
	total  float64
}

// NewExact returns an empty exact counter.
func NewExact[K comparable]() *Exact[K] {
	return &Exact[K]{counts: make(map[K]float64)}
}

// Observe adds c to item i's count.
func (e *Exact[K]) Observe(i K, c float64) {
	e.counts[i] += c
	e.total += c
}

// Count returns i's exact count (0 if never observed).
func (e *Exact[K]) Count(i K) (float64, bool) {
	v, ok := e.counts[i]
	return v, ok
}

// Total returns the sum of all observed counts.
func (e *Exact[K]) Total() float64 { return e.total }

// Len reports the number of distinct items.
func (e *Exact[K]) Len() int { return len(e.counts) }

// Decay multiplies every count by retain.
func (e *Exact[K]) Decay(retain float64) {
	for k, v := range e.counts {
		e.counts[k] = v * retain
	}
	e.total *= retain
}

// entry is one (item, count) pair of a sketch or counter.
type entry[K comparable] struct {
	item  K
	count float64
}

// byCount returns the pairs visit yields, by descending count (ties
// in the order visit yields them).
func byCount[K comparable](visit func(func(K, float64))) []entry[K] {
	var out []entry[K]
	visit(func(item K, count float64) { out = append(out, entry[K]{item, count}) })
	sort.SliceStable(out, func(i, j int) bool { return out[i].count > out[j].count })
	return out
}

// ForEach visits every (item, count) pair.
func (e *Exact[K]) ForEach(f func(item K, count float64)) {
	for k, v := range e.counts {
		f(k, v)
	}
}
