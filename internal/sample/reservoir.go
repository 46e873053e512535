// Package sample implements the reservoir samplers MacroBase uses and
// compares (paper §4.2, Figure 5): the classic uniform reservoir
// (Vitter's Algorithm R), a per-tuple exponentially biased reservoir
// (Aggarwal), and the paper's contribution, the Adaptable Damped
// Reservoir (ADR), which decouples insertion from decay so the damping
// window can be tuple-based or time-based.
package sample

import "math/rand/v2"

// RNG abstracts the randomness used by the samplers so tests can
// substitute deterministic sequences. *rand.Rand satisfies it.
type RNG interface {
	Float64() float64
	IntN(n int) int
}

// NewRNG returns a deterministic PCG-backed generator for the seed.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Uniform is Vitter's Algorithm R: a fixed-capacity uniform sample
// over everything observed so far. It serves as the non-adaptive
// baseline in the Figure 5 adaptivity experiment.
type Uniform[T any] struct {
	items []T
	seen  int
	k     int
	rng   RNG
}

// NewUniform returns a uniform reservoir of capacity k.
func NewUniform[T any](k int, rng RNG) *Uniform[T] {
	if k <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	return &Uniform[T]{items: make([]T, 0, k), k: k, rng: rng}
}

// Observe offers x to the reservoir.
func (u *Uniform[T]) Observe(x T) {
	u.seen++
	if len(u.items) < u.k {
		u.items = append(u.items, x)
		return
	}
	if j := u.rng.IntN(u.seen); j < u.k {
		u.items[j] = x
	}
}

// Items returns the current sample. The slice aliases internal
// storage and is invalidated by further Observe calls.
func (u *Uniform[T]) Items() []T { return u.items }

// TupleDecay is Aggarwal's biased reservoir sampler with exponential
// per-record bias: each arriving point is always admitted, evicting a
// random resident with probability size/k. Recency bias is therefore
// coupled to tuple arrival, which Figure 5 shows skews the sample
// toward bursts of high stream volume.
type TupleDecay[T any] struct {
	items []T
	k     int
	rng   RNG
}

// NewTupleDecay returns a per-tuple exponentially biased reservoir of
// capacity k (bias rate 1/k).
func NewTupleDecay[T any](k int, rng RNG) *TupleDecay[T] {
	if k <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	return &TupleDecay[T]{items: make([]T, 0, k), k: k, rng: rng}
}

// Observe admits x, randomly evicting a resident when the coin flip
// with probability fill-fraction succeeds.
func (t *TupleDecay[T]) Observe(x T) {
	fill := float64(len(t.items)) / float64(t.k)
	if t.rng.Float64() < fill {
		t.items[t.rng.IntN(len(t.items))] = x
		return
	}
	t.items = append(t.items, x)
}

// Items returns the current sample (aliases internal storage).
func (t *TupleDecay[T]) Items() []T { return t.items }
