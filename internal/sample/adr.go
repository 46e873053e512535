package sample

// ADR is the Adaptable Damped Reservoir (paper Algorithm 1): an
// exponentially damped reservoir sample over arbitrary window sizes.
// Unlike per-tuple damped samplers, the ADR separates insertion from
// the decay decision, so callers may decay on a timer, per batch, or
// per tuple-count window. MacroBase maintains one ADR over the input
// metrics (model retraining) and one over outlier scores (quantile
// thresholding), both decayed every StreamRunner.DecayEvery points.
//
// Insertion follows Chao's unequal-probability sampling plan: a
// running weight cw accumulates the weight of all offers; an offer of
// weight w displaces a random resident with probability k*w/cw.
// Overweight offers (probability >= 1) are always admitted, matching
// the paper's simplified treatment. Decay multiplies cw by the
// retention factor, boosting the insertion probability of subsequent
// arrivals and thereby biasing the sample toward recent data.
type ADR[T any] struct {
	items []T
	k     int
	cw    float64
	rate  float64
	rng   RNG
}

// NewADR returns an ADR with capacity k and decay rate in [0, 1);
// each Decay call retains a (1 - rate) fraction of the accumulated
// weight. The paper's default configuration uses k = 10_000 and
// rate = 0.01 applied every 100K points (§6).
func NewADR[T any](k int, rate float64, rng RNG) *ADR[T] {
	if k <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	if rate < 0 || rate >= 1 {
		panic("sample: decay rate must be in [0, 1)")
	}
	return &ADR[T]{items: make([]T, 0, k), k: k, rate: rate, rng: rng}
}

// Observe offers x with weight 1.
func (a *ADR[T]) Observe(x T) { a.ObserveWeighted(x, 1) }

// ObserveWeighted offers x with weight w (paper Algorithm 1 OBSERVE).
func (a *ADR[T]) ObserveWeighted(x T, w float64) {
	if w <= 0 {
		return
	}
	a.cw += w
	if len(a.items) < a.k {
		a.items = append(a.items, x)
		return
	}
	p := float64(a.k) * w / a.cw
	if p >= 1 || a.rng.Float64() < p {
		a.items[a.rng.IntN(len(a.items))] = x
	}
}

// OfferSlot offers an item of weight w and, when it is admitted,
// returns the reservoir slot the caller must fill (via Items()). This
// is the allocation-free form of lazy admission: on the rare admission
// the caller can copy into — and reuse the backing storage of — the
// displaced resident, so a steady-state reservoir of slices recycles
// its buffers instead of allocating per point. During the fill phase a
// zero-valued slot is appended and its index returned.
func (a *ADR[T]) OfferSlot(w float64) (int, bool) {
	if w <= 0 {
		return -1, false
	}
	a.cw += w
	if len(a.items) < a.k {
		var zero T
		a.items = append(a.items, zero)
		return len(a.items) - 1, true
	}
	p := float64(a.k) * w / a.cw
	if p >= 1 || a.rng.Float64() < p {
		return a.rng.IntN(len(a.items)), true
	}
	return -1, false
}

// Decay damps the running weight by the configured rate
// (paper Algorithm 1 DECAY with r = 1 - rate).
func (a *ADR[T]) Decay() { a.cw *= 1 - a.rate }

// Items returns the current sample. The slice aliases internal
// storage and is invalidated by further Observe calls; copy before
// mutating (model training permutes its input, so MDP copies).
func (a *ADR[T]) Items() []T { return a.items }

// Snapshot returns a copy of the current sample.
func (a *ADR[T]) Snapshot() []T {
	out := make([]T, len(a.items))
	copy(out, a.items)
	return out
}

// Weight returns the current running weight cw.
func (a *ADR[T]) Weight() float64 { return a.cw }

// Len returns the number of resident items (at most the capacity k).
func (a *ADR[T]) Len() int { return len(a.items) }

// Reset empties the reservoir and zeroes the running weight.
func (a *ADR[T]) Reset() {
	a.items = a.items[:0]
	a.cw = 0
}
