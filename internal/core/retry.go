package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// ErrTransient is the sentinel for source errors worth retrying: a
// broker rebalance, a dropped connection, a timeout on a healthy
// endpoint. Sources signal retryability by wrapping it
// (fmt.Errorf("...: %w", core.ErrTransient)); IsTransient is the
// corresponding classifier, and RetryPartition's default policy retries
// exactly the errors it accepts. Errors not marked transient are
// treated as fatal and propagate immediately — a schema mismatch or a
// corrupt frame does not get better by asking again.
var ErrTransient = errors.New("transient source error")

// IsTransient reports whether err is worth retrying: it wraps
// ErrTransient, is a context deadline (a timed-out attempt against a
// live endpoint), or implements interface{ Transient() bool }
// reporting true (the idiom net.Error-style error hierarchies use).
// Context cancellation is NOT transient — it is how stops propagate.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// RetryPolicy configures RetryPartition: capped exponential backoff
// with symmetric jitter, an optional per-attempt timeout, and a
// transient-vs-fatal classifier. The zero value is usable and means:
// 5 attempts, 5ms base delay doubling to a 1s cap, ±50% jitter, no
// per-attempt timeout, IsTransient classification.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per read, first attempt
	// included (default 5; values < 1 mean the default).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 1s).
	MaxDelay time.Duration
	// Multiplier is the per-retry growth factor (default 2).
	Multiplier float64
	// Jitter spreads each delay uniformly over ±Jitter of its nominal
	// value, decorrelating retry storms across partitions (default 0.5;
	// set negative for none).
	Jitter float64
	// AttemptTimeout, when positive, bounds each read attempt with a
	// child context deadline; a read that exceeds it is cancelled and
	// classified (DeadlineExceeded is transient under IsTransient), so
	// a stalled source turns into a retry instead of a hang.
	AttemptTimeout time.Duration
	// Classify overrides IsTransient as the retry predicate.
	Classify func(error) bool
	// Seed seeds the jitter RNG (deterministic backoff schedules for
	// tests; partitions derive distinct streams from it).
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Classify == nil {
		p.Classify = IsTransient
	}
	return p
}

// RetryPartition wraps a PartitionStream with retry-on-transient-error
// semantics: each read is attempted up to MaxAttempts times with
// capped exponential backoff and jitter between tries, under an
// optional per-attempt timeout. Fatal errors (per the classifier) and
// parent-context cancellation propagate immediately; exhausted retries
// propagate the last error, wrapped with the attempt count. Retries
// are counted (Retries) and surfaced in PartitionIngestStats when the
// partition is wrapped via NewRetrySource.
//
// Like the stream it wraps, a RetryPartition is consumed by a single
// goroutine.
type RetryPartition struct {
	inner   PartitionStream
	pol     RetryPolicy
	rng     *rand.Rand
	retries atomic.Int64
}

// NewRetryPartition wraps inner with pol.
func NewRetryPartition(inner PartitionStream, pol RetryPolicy) *RetryPartition {
	pol = pol.withDefaults()
	return &RetryPartition{
		inner: inner,
		pol:   pol,
		rng:   rand.New(rand.NewPCG(pol.Seed, 0x9e3779b97f4a7c15)),
	}
}

// Unwrap exposes the wrapped stream so checkpoint capability probes
// (AsCheckpointable/AsSeekable) can reach through the wrapper.
func (r *RetryPartition) Unwrap() PartitionStream { return r.inner }

// Retries reports the number of retried attempts so far (not counting
// each read's first try). Safe to read concurrently with the consumer.
func (r *RetryPartition) Retries() int64 { return r.retries.Load() }

// NextBatchInto implements PartitionStream with retry semantics. dst is
// re-emptied between attempts, so a half-filled failed try never leaks
// into the delivered batch.
func (r *RetryPartition) NextBatchInto(ctx context.Context, dst *Batch, max int) (*Batch, error) {
	var out *Batch
	err := r.attempt(ctx, func(actx context.Context) error {
		dst.Reset()
		var e error
		out, e = r.inner.NextBatchInto(actx, dst, max)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// attempt runs one logical read through the retry loop.
func (r *RetryPartition) attempt(ctx context.Context, read func(context.Context) error) error {
	for a := 1; ; a++ {
		actx := ctx
		var cancel context.CancelFunc
		if r.pol.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.pol.AttemptTimeout)
		}
		err := read(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil || err == ErrEndOfStream {
			return err
		}
		if ctx.Err() != nil {
			// The parent was cancelled (a stop, or its own deadline):
			// report that, not the attempt's surface error.
			return ctx.Err()
		}
		if !r.pol.Classify(err) {
			return err // fatal: retrying cannot help
		}
		if a >= r.pol.MaxAttempts {
			return fmt.Errorf("core: retries exhausted after %d attempts: %w", a, err)
		}
		r.retries.Add(1)
		if !r.sleep(ctx, r.backoff(a)) {
			return ctx.Err()
		}
	}
}

// backoff computes the jittered delay before retry number attempt
// (1-based).
func (r *RetryPartition) backoff(attempt int) time.Duration {
	d := float64(r.pol.BaseDelay)
	cap := float64(r.pol.MaxDelay)
	for i := 1; i < attempt && d < cap; i++ {
		d *= r.pol.Multiplier
	}
	if d > cap {
		d = cap
	}
	if j := r.pol.Jitter; j > 0 {
		d *= 1 + j*(2*r.rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// sleep waits d or until ctx is cancelled; false means cancelled.
func (r *RetryPartition) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// RetrySource wraps every partition of a PartitionedSource with the
// same RetryPolicy (each partition jitters from its own derived seed,
// so partitions never back off in lockstep) and surfaces the
// per-partition retry counters through IngestStats — alongside the
// inner source's own counters when it is IngestObservable, or on
// otherwise-empty entries when it is not.
type RetrySource struct {
	inner PartitionedSource
	parts []PartitionStream
	rps   []*RetryPartition
}

// NewRetrySource wraps src. The inner source's Partitions is consumed
// here, once; the wrapper's Partitions is idempotent and stable.
func NewRetrySource(src PartitionedSource, pol RetryPolicy) *RetrySource {
	pol = pol.withDefaults()
	inner := src.Partitions()
	rs := &RetrySource{
		inner: src,
		parts: make([]PartitionStream, len(inner)),
		rps:   make([]*RetryPartition, len(inner)),
	}
	for i, ps := range inner {
		pp := pol
		pp.Seed = pol.Seed + uint64(i)*0x9e3779b9
		rs.rps[i] = NewRetryPartition(ps, pp)
		rs.parts[i] = rs.rps[i]
	}
	return rs
}

// Partitions implements PartitionedSource.
func (rs *RetrySource) Partitions() []PartitionStream { return rs.parts }

// IngestStats implements IngestObservable: the inner source's entries
// (or zero-valued ones) annotated with each partition's retry count.
func (rs *RetrySource) IngestStats(dst []PartitionIngestStats) []PartitionIngestStats {
	base := len(dst)
	if obs, ok := rs.inner.(IngestObservable); ok {
		dst = obs.IngestStats(dst)
	} else {
		for range rs.parts {
			dst = append(dst, PartitionIngestStats{})
		}
	}
	for i := range rs.parts {
		if base+i < len(dst) {
			dst[base+i].Retries = rs.rps[i].Retries()
		}
	}
	return dst
}

var (
	_ PartitionStream   = (*RetryPartition)(nil)
	_ PartitionedSource = (*RetrySource)(nil)
	_ IngestObservable  = (*RetrySource)(nil)
)
