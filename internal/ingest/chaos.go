package ingest

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"macrobase/internal/core"
)

// ChaosPlan configures seeded fault injection for ChaosPartition. All
// probabilities are per read, evaluated from the plan's deterministic
// RNG stream, so a given (plan, seed, read sequence) always injects the
// same faults — the property that lets CI run a fixed seed matrix and
// lets a failure be replayed exactly.
type ChaosPlan struct {
	// Seed drives the fault RNG (ChaosSource derives a distinct
	// sub-seed per partition).
	Seed uint64
	// TransientErrorRate injects read errors wrapping core.ErrTransient
	// (the retry layer should absorb them).
	TransientErrorRate float64
	// FatalAfterReads, when positive, fails the partition permanently
	// at that read number with a non-transient error.
	FatalAfterReads int
	// StallRate injects delivery stalls of Stall (default 1ms) before a
	// read — the blocked-broker shape that per-attempt timeouts exist
	// for.
	StallRate float64
	Stall     time.Duration
	// DuplicateRate re-delivers a copy of the previous batch before the
	// next one — the at-least-once duplicate shape. Incompatible with
	// offset checkpointing (duplicates corrupt the delivered-point
	// count); use on fire-and-forget streams only.
	DuplicateRate float64
	// ReorderRate holds a batch back and delivers it after its
	// successor — adjacent-swap reordering across one partition.
	// Incompatible with offset checkpointing, like DuplicateRate.
	ReorderRate float64
}

// ChaosPartition wraps a PartitionStream with seeded fault injection
// (see ChaosPlan): transient and fatal errors, stalls, duplicated and
// reordered batches. It is the test harness the robustness machinery is
// validated against — production code should never construct one.
//
// Unwrap exposes the inner stream to checkpoint capability probes, but
// see the ChaosPlan caveats on duplicates/reorders under checkpointing.
type ChaosPartition struct {
	inner core.PartitionStream
	plan  ChaosPlan
	rng   *rand.Rand
	reads int
	// held is the reordering hold-back: an own-copy of a batch whose
	// delivery is deferred until after its successor's.
	held *core.Batch
	// prev is an own-copy of the last delivered batch, maintained only
	// when duplicates are enabled.
	prev *core.Batch
}

// NewChaosPartition wraps inner with plan.
func NewChaosPartition(inner core.PartitionStream, plan ChaosPlan) *ChaosPartition {
	return &ChaosPartition{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewPCG(plan.Seed, 0x6368616f73)), // "chaos"
	}
}

// Unwrap implements core.PartitionUnwrapper.
func (c *ChaosPartition) Unwrap() core.PartitionStream { return c.inner }

// Reads reports how many reads the wrapper has served or failed.
func (c *ChaosPartition) Reads() int { return c.reads }

// NextBatchInto implements core.PartitionStream, injecting faults per
// the plan before and around the inner read.
func (c *ChaosPartition) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	c.reads++
	if f := c.plan.FatalAfterReads; f > 0 && c.reads >= f {
		return nil, fmt.Errorf("chaos: injected fatal failure at read %d", c.reads)
	}
	if r := c.plan.TransientErrorRate; r > 0 && c.rng.Float64() < r {
		return nil, fmt.Errorf("chaos: injected fault at read %d: %w", c.reads, core.ErrTransient)
	}
	if r := c.plan.StallRate; r > 0 && c.rng.Float64() < r {
		stall := c.plan.Stall
		if stall <= 0 {
			stall = time.Millisecond
		}
		t := time.NewTimer(stall)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	if c.prev != nil && c.plan.DuplicateRate > 0 && c.rng.Float64() < c.plan.DuplicateRate {
		dst.AppendPoints(c.prev.Points())
		return dst, nil // a duplicate, not a new read: prev stays
	}
	if c.held != nil {
		b := c.held
		c.held = nil
		dst.AppendPoints(b.Points())
		c.noteDelivered(dst)
		return dst, nil
	}
	nb, err := c.inner.NextBatchInto(ctx, dst, max)
	if err != nil {
		return nil, err
	}
	if r := c.plan.ReorderRate; r > 0 && c.rng.Float64() < r {
		// Hold this batch back in an own-copy and deliver its successor
		// first. If the successor read fails transiently or the stream
		// ends, the held batch is delivered on a later call (or at
		// end-of-stream below), so reordering never loses data.
		held := &core.Batch{}
		held.AppendPoints(nb.Points())
		c.held = held
		if nb != dst {
			dst = nb // keep ownership of whichever batch we now hold
		}
		dst.Reset()
		next, err := c.inner.NextBatchInto(ctx, dst, max)
		if err == core.ErrEndOfStream {
			b := c.held
			c.held = nil
			dst.Reset()
			dst.AppendPoints(b.Points())
			c.noteDelivered(dst)
			return dst, nil
		}
		if err != nil {
			return nil, err // held stays for a later delivery
		}
		c.noteDelivered(next)
		return next, nil
	}
	c.noteDelivered(nb)
	return nb, nil
}

// noteDelivered maintains the duplicate-source copy of the last
// delivered batch.
func (c *ChaosPartition) noteDelivered(b *core.Batch) {
	if c.plan.DuplicateRate <= 0 {
		return
	}
	if c.prev == nil {
		c.prev = &core.Batch{}
	}
	c.prev.Reset()
	c.prev.AppendPoints(b.Points())
}

// ChaosSource wraps every partition of a PartitionedSource with the
// same fault plan, each partition injecting from its own derived seed.
// Partitions is idempotent (the wrappers are built once), so the
// wrapped source can be shared between a session and its checkpoint
// layer.
type ChaosSource struct {
	inner core.PartitionedSource
	parts []core.PartitionStream
}

// NewChaosSource wraps src with plan.
func NewChaosSource(src core.PartitionedSource, plan ChaosPlan) *ChaosSource {
	inner := src.Partitions()
	cs := &ChaosSource{inner: src, parts: make([]core.PartitionStream, len(inner))}
	for i, ps := range inner {
		pp := plan
		pp.Seed = plan.Seed + uint64(i)*0x9e3779b9
		cs.parts[i] = NewChaosPartition(ps, pp)
	}
	return cs
}

// Partitions implements core.PartitionedSource.
func (cs *ChaosSource) Partitions() []core.PartitionStream { return cs.parts }

// IngestStats forwards to the inner source when it is observable.
func (cs *ChaosSource) IngestStats(dst []core.PartitionIngestStats) []core.PartitionIngestStats {
	if obs, ok := cs.inner.(core.IngestObservable); ok {
		return obs.IngestStats(dst)
	}
	return dst
}

// TornFrames truncates an encoded MBR1 byte stream at a seeded point
// strictly inside a frame, simulating a connection cut mid-write — the
// torn-frame input the binary push decoder must reject cleanly (an
// error, never a panic, and never silently accepted rows past the
// tear).
func TornFrames(frames []byte, seed uint64) []byte {
	if len(frames) <= 5 {
		return frames
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	cut := 5 + rng.IntN(len(frames)-5) // keep the magic, tear inside a frame
	return frames[:cut]
}

var (
	_ core.PartitionStream    = (*ChaosPartition)(nil)
	_ core.PartitionUnwrapper = (*ChaosPartition)(nil)
	_ core.PartitionedSource  = (*ChaosSource)(nil)
	_ core.IngestObservable   = (*ChaosSource)(nil)
)
