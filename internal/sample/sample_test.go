package sample

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformCapacityAndCoverage(t *testing.T) {
	r := NewUniform[int](10, NewRNG(1))
	for i := 0; i < 5; i++ {
		r.Observe(i)
	}
	if len(r.Items()) != 5 {
		t.Fatalf("len = %d, want 5 before fill", len(r.Items()))
	}
	for i := 5; i < 10_000; i++ {
		r.Observe(i)
	}
	if len(r.Items()) != 10 {
		t.Fatalf("len = %d, want 10", len(r.Items()))
	}
	if r.seen != 10_000 {
		t.Fatalf("seen = %d", r.seen)
	}
}

// TestUniformIsUniform checks that early and late items are retained
// with statistically similar frequency.
func TestUniformIsUniform(t *testing.T) {
	const trials, n, k = 3000, 200, 10
	firstHalf := 0
	for s := 0; s < trials; s++ {
		r := NewUniform[int](k, NewRNG(uint64(s)))
		for i := 0; i < n; i++ {
			r.Observe(i)
		}
		for _, v := range r.Items() {
			if v < n/2 {
				firstHalf++
			}
		}
	}
	frac := float64(firstHalf) / float64(trials*k)
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("first-half retention %.3f, want ~0.5", frac)
	}
}

func TestTupleDecayBiasesRecent(t *testing.T) {
	const trials, n, k = 2000, 1000, 20
	recent := 0
	for s := 0; s < trials; s++ {
		r := NewTupleDecay[int](k, NewRNG(uint64(s)+99))
		for i := 0; i < n; i++ {
			r.Observe(i)
		}
		for _, v := range r.Items() {
			if v >= n/2 {
				recent++
			}
		}
	}
	frac := float64(recent) / float64(trials*k)
	if frac < 0.6 {
		t.Errorf("recent-half retention %.3f, want clearly > 0.5", frac)
	}
}

func TestADRCapacityInvariant(t *testing.T) {
	f := func(ops []uint8, seed uint64) bool {
		a := NewADR[int](8, 0.1, NewRNG(seed))
		for i, op := range ops {
			if op%5 == 0 {
				a.Decay()
			} else {
				a.Observe(i)
			}
			if a.Len() > a.k {
				return false
			}
			if a.Weight() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestADRWeightAccounting(t *testing.T) {
	a := NewADR[int](4, 0.5, NewRNG(5))
	for i := 0; i < 10; i++ {
		a.Observe(i)
	}
	if a.Weight() != 10 {
		t.Fatalf("weight = %v, want 10", a.Weight())
	}
	a.Decay()
	if a.Weight() != 5 {
		t.Fatalf("decayed weight = %v, want 5", a.Weight())
	}
	a.ObserveWeighted(99, 3)
	if a.Weight() != 8 {
		t.Fatalf("weight = %v, want 8", a.Weight())
	}
	a.ObserveWeighted(100, 0) // non-positive weights ignored
	if a.Weight() != 8 {
		t.Fatalf("weight = %v after zero-weight observe", a.Weight())
	}
}

// TestADRBiasAfterDecay: after heavy decay, new arrivals should
// dominate the reservoir, unlike a uniform sample.
func TestADRBiasAfterDecay(t *testing.T) {
	const k = 100
	a := NewADR[int](k, 0.5, NewRNG(42))
	u := NewUniform[int](k, NewRNG(43))
	for i := 0; i < 100_000; i++ {
		a.Observe(0) // old regime: value 0
		u.Observe(0)
	}
	// Aggressive decay, then a shorter burst of the new regime.
	for d := 0; d < 20; d++ {
		a.Decay()
	}
	for i := 0; i < 10_000; i++ {
		a.Observe(1) // new regime: value 1
		u.Observe(1)
	}
	adrNew, uniNew := 0, 0
	for _, v := range a.Items() {
		adrNew += v
	}
	for _, v := range u.Items() {
		uniNew += v
	}
	if adrNew < 80 {
		t.Errorf("ADR retained only %d/100 new-regime items", adrNew)
	}
	if uniNew > 30 {
		t.Errorf("uniform reservoir unexpectedly adaptive: %d/100", uniNew)
	}
}

func TestADRObserveLazyOnlyMaterializesAdmitted(t *testing.T) {
	a := NewADR[int](10, 0.01, NewRNG(7))
	admitted := 0
	for i := 0; i < 10_000; i++ {
		slot, ok := a.OfferSlot(1)
		if !ok {
			continue
		}
		if slot < 0 || slot >= a.Len() {
			t.Fatalf("offer %d: slot %d outside the %d residents", i, slot, a.Len())
		}
		a.Items()[slot] = i
		admitted++
	}
	if admitted >= 10_000/2 {
		t.Errorf("too many admissions: %d", admitted)
	}
	if a.Len() != 10 {
		t.Errorf("len = %d", a.Len())
	}
}

func TestADROverweightAlwaysAdmitted(t *testing.T) {
	a := NewADR[int](4, 0.1, NewRNG(9))
	for i := 0; i < 100; i++ {
		a.Observe(0)
	}
	// Weight so large that k*w/cw >= 1 forces admission.
	a.ObserveWeighted(7, 1e9)
	found := false
	for _, v := range a.Items() {
		if v == 7 {
			found = true
		}
	}
	if !found {
		t.Error("overweight item was not admitted")
	}
}

func TestADRSnapshotIndependent(t *testing.T) {
	a := NewADR[int](4, 0.1, NewRNG(10))
	for i := 0; i < 4; i++ {
		a.Observe(i)
	}
	snap := a.Snapshot()
	a.Reset()
	if a.Len() != 0 || a.Weight() != 0 {
		t.Error("reset did not clear")
	}
	if len(snap) != 4 {
		t.Errorf("snapshot len = %d", len(snap))
	}
}

func TestConstructorPanics(t *testing.T) {
	assertPanics(t, func() { NewADR[int](0, 0.1, NewRNG(1)) })
	assertPanics(t, func() { NewADR[int](5, 1.0, NewRNG(1)) })
	assertPanics(t, func() { NewUniform[int](0, NewRNG(1)) })
	assertPanics(t, func() { NewTupleDecay[int](-1, NewRNG(1)) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
