package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
)

// drive feeds an identical random stream (continuous weights, so count
// ties are measure-zero and tie-breaking differences can never show)
// through both sketches, interleaving decays and merges per script.
func driveAMCPair(t *testing.T, stable int, maxID int32, ops int, seed uint64,
	f func(op int, id int32, w float64, m *AMC[int32], d *DenseAMC)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	m := NewAMC[int32](stable, 0.01)
	d := NewDenseAMC(stable, 0.01)
	for op := 0; op < ops; op++ {
		id := int32(rng.IntN(int(maxID)))
		w := 0.5 + rng.Float64()
		f(op, id, w, m, d)
	}
	requireAMCEqual(t, m, d)
}

// requireAMCEqual asserts the two sketches track the same items with
// the same counts and the same error bound.
func requireAMCEqual(t *testing.T, m *AMC[int32], d *DenseAMC) {
	t.Helper()
	if m.Len() != d.Len() {
		t.Fatalf("Len: map %d dense %d", m.Len(), d.Len())
	}
	if math.Abs(m.wi-d.wi) > 1e-9 {
		t.Fatalf("w_i: map %v dense %v", m.wi, d.wi)
	}
	m.ForEach(func(item int32, count float64) {
		dc, ok := d.Count(item)
		if !ok {
			t.Fatalf("dense missing item %d (map count %v)", item, count)
		}
		if math.Abs(dc-count) > 1e-9 {
			t.Fatalf("item %d: map %v dense %v", item, count, dc)
		}
	})
}

func TestDenseAMCMatchesMapObserve(t *testing.T) {
	driveAMCPair(t, 64, 1000, 20_000, 1, func(op int, id int32, w float64, m *AMC[int32], d *DenseAMC) {
		m.Observe(id, w)
		d.Observe(id, w)
		if op%1500 == 1499 {
			m.Maintain()
			d.Maintain()
		}
	})
}

func TestDenseAMCMatchesMapDecay(t *testing.T) {
	driveAMCPair(t, 48, 400, 15_000, 2, func(op int, id int32, w float64, m *AMC[int32], d *DenseAMC) {
		m.Observe(id, w)
		d.Observe(id, w)
		if op%900 == 899 {
			m.Decay()
			d.Decay()
		}
		if op%2100 == 2099 {
			m.DecayBy(0.7)
			d.DecayBy(0.7)
		}
	})
}

func TestDenseAMCMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	mA, mB := NewAMC[int32](32, 0.01), NewAMC[int32](32, 0.01)
	dA, dB := NewDenseAMC(32, 0.01), NewDenseAMC(32, 0.01)
	for i := 0; i < 8000; i++ {
		id := int32(rng.IntN(300))
		w := 0.5 + rng.Float64()
		if i%2 == 0 {
			mA.Observe(id, w)
			dA.Observe(id, w)
		} else {
			mB.Observe(id, w)
			dB.Observe(id, w)
		}
		if i%1000 == 999 {
			mA.Maintain()
			dA.Maintain()
			mB.Maintain()
			dB.Maintain()
		}
	}
	// Merge clones so the originals stay comparable too.
	mm, dm := mA.Clone(), dA.Clone()
	mm.Merge(mB)
	dm.Merge(dB)
	requireAMCEqual(t, mm, dm)
	requireAMCEqual(t, mA, dA)
	requireAMCEqual(t, mB, dB)
}

// TestDenseAMCMatchesMapTies: with integer weights most counts tie, so
// Maintain keeps stableSize items only by dropping some of the ties at
// the threshold. Both sketches must drop the same ones, the smallest
// ids first, after every maintenance round and every decay.
func TestDenseAMCMatchesMapTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	m := NewAMC[int32](16, 0.5)
	d := NewDenseAMC(16, 0.5)
	for op := 0; op < 20_000; op++ {
		id := int32(rng.IntN(400))
		w := float64(1 + rng.IntN(2))
		m.Observe(id, w)
		d.Observe(id, w)
		if op%250 == 249 {
			m.Maintain()
			d.Maintain()
			requireAMCEqual(t, m, d)
		}
		if op%1000 == 999 {
			m.Decay()
			d.Decay()
			requireAMCEqual(t, m, d)
		}
	}
}

func TestDenseAMCCloneIndependent(t *testing.T) {
	d := NewDenseAMC(16, 0.01)
	for i := int32(0); i < 10; i++ {
		d.Observe(i, float64(i)+1)
	}
	c := d.Clone()
	d.Observe(3, 100)
	d.DecayBy(0.5)
	if v, _ := c.Count(3); v != 4 {
		t.Fatalf("clone mutated: Count(3) = %v, want 4", v)
	}
	if c.Len() != 10 {
		t.Fatalf("clone Len = %d", c.Len())
	}
}

func TestDenseAMCIgnoresNegativeIDs(t *testing.T) {
	d := NewDenseAMC(8, 0.01)
	d.Observe(-5, 1)
	if d.Len() != 0 {
		t.Fatal("negative id admitted")
	}
	if _, ok := d.Count(-5); ok {
		t.Fatal("negative id tracked")
	}
}

// TestDenseAMCObserveZeroAlloc pins the allocation-free hot path: once
// the id range is covered, Observe must not touch the allocator.
func TestDenseAMCObserveZeroAlloc(t *testing.T) {
	d := NewDenseAMC(1024, 0.01)
	for i := int32(0); i < 512; i++ {
		d.Observe(i, 1)
	}
	n := testing.AllocsPerRun(1000, func() {
		d.Observe(137, 1)
	})
	if n != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want 0", n)
	}
}
