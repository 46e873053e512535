package pipeline

import (
	"fmt"
	"sync"
	"time"

	"macrobase/internal/core"
)

// CheckpointVersion is the current checkpoint blob format version.
// Version 1 is offsets-only: a checkpoint records, per partition, the
// committed ingest offset (every point below it routed AND consumed by
// its shard worker) and nothing else. Resume seeks each partition back
// to its committed offset and rebuilds operator state fresh by
// replaying from there — models, reservoirs, and sketches are NOT
// snapshotted. Delivery across a kill/resume is therefore
// at-least-once: points consumed after the last checkpoint are
// re-delivered. See doc.go, "Delivery semantics and failure model".
const CheckpointVersion = 1

// PartitionOffset is one partition's entry in a checkpoint.
type PartitionOffset struct {
	// Partition indexes the source's partition list.
	Partition int `json:"partition"`
	// Offset is the committed point count: the resume position.
	Offset int64 `json:"offset"`
	// Checkpointable is false for partitions that do not implement
	// core.CheckpointablePartition; they carry no offset and resume
	// from wherever the source naturally starts.
	Checkpointable bool `json:"checkpointable"`
}

// Checkpoint is a consistent, resumable snapshot of a partitioned
// streaming session's ingest progress. It is plain data — marshal it
// with encoding/json and store it wherever durability lives.
type Checkpoint struct {
	Version    int               `json:"version"`
	Partitions []PartitionOffset `json:"partitions"`
}

// Checkpoint snapshots the session's committed offsets — for each
// partition, the largest offset whose every point has been routed and
// consumed by the shard workers — and acknowledges them back to the
// source (ingest.Push trims its replay buffer up to the committed
// offset; file-backed sources ignore the ack). It may be called at any
// time while the stream runs, and after termination (the final offsets
// then cover the whole stream).
//
// The returned blob plus the original inputs are sufficient to resume:
// see ResumeStream. Only sessions over a partitioned source with at
// least one checkpointable partition can checkpoint.
func (s *StreamSession) Checkpoint() (*Checkpoint, error) {
	ok := false
	for _, cp := range s.ckParts {
		if cp != nil {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("pipeline: session has no checkpointable partitions")
	}
	// The runner installs its offset trackers at Run start; a checkpoint
	// racing session startup waits a beat, like Poll does.
	var offs []int64
	for {
		offs = s.runner.CommittedOffsets(nil)
		if offs != nil {
			break
		}
		if s.Done() {
			if offs = s.runner.CommittedOffsets(nil); offs != nil {
				break
			}
			return nil, fmt.Errorf("pipeline: stream ended before the engine started; nothing to checkpoint")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ck := &Checkpoint{Version: CheckpointVersion, Partitions: make([]PartitionOffset, len(offs))}
	for i, off := range offs {
		po := PartitionOffset{Partition: i}
		if off >= 0 {
			po.Offset, po.Checkpointable = off, true
		}
		ck.Partitions[i] = po
	}
	// The checkpoint is the caller's durability point: everything below
	// a committed offset will never be asked for again, so the source
	// may discard its replay state up to there.
	for i, po := range ck.Partitions {
		if po.Checkpointable && i < len(s.ckParts) && s.ckParts[i] != nil {
			s.ckParts[i].Ack(po.Offset)
		}
	}
	return ck, nil
}

// ResumeStream restarts a partitioned streaming session from a
// checkpoint: each checkpointable partition is sought back to its
// committed offset (the source must implement core.SeekablePartition —
// ingest.Push with replay enabled and path-opened
// ingest.PartitionedCSV do), and a fresh session is started over the
// repositioned source. cfg and shards should match the checkpointed
// run; operator state is rebuilt from scratch (see CheckpointVersion),
// so the resumed session's explanations reflect the replayed tail
// onward, exactly as an uninterrupted run's would once the same points
// have flowed through.
func ResumeStream(parts core.PartitionedSource, cfg Config, shards int, ck *Checkpoint) (*StreamSession, error) {
	if ck == nil {
		return nil, fmt.Errorf("pipeline: nil checkpoint")
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("pipeline: unsupported checkpoint version %d (want %d)", ck.Version, CheckpointVersion)
	}
	sp := newStableParts(parts)
	streams := sp.Partitions()
	if len(ck.Partitions) != len(streams) {
		return nil, fmt.Errorf("pipeline: checkpoint has %d partitions, source has %d", len(ck.Partitions), len(streams))
	}
	for _, po := range ck.Partitions {
		if !po.Checkpointable {
			continue
		}
		if po.Partition < 0 || po.Partition >= len(streams) {
			return nil, fmt.Errorf("pipeline: checkpoint names unknown partition %d", po.Partition)
		}
		sk, ok := core.AsSeekable(streams[po.Partition])
		if !ok {
			return nil, fmt.Errorf("pipeline: partition %d is not seekable; cannot resume", po.Partition)
		}
		if err := sk.SeekTo(po.Offset); err != nil {
			return nil, fmt.Errorf("pipeline: resuming partition %d: %w", po.Partition, err)
		}
	}
	return StartPartitionedStream(sp, cfg, shards)
}

// stableParts memoizes a PartitionedSource's Partitions so the session
// and the engine observe the same partition stream objects — the
// checkpoint layer Acks and seeks the very streams the runner reads.
// The repo's own sources already return stable objects; this wrapper
// turns that convention into a guarantee for third-party ones.
type stableParts struct {
	inner core.PartitionedSource
	once  sync.Once
	parts []core.PartitionStream
}

func newStableParts(src core.PartitionedSource) *stableParts {
	return &stableParts{inner: src}
}

// Partitions implements core.PartitionedSource, consuming the inner
// list exactly once.
func (sp *stableParts) Partitions() []core.PartitionStream {
	sp.once.Do(func() { sp.parts = sp.inner.Partitions() })
	return sp.parts
}

// IngestStats forwards to the inner source when it is observable.
func (sp *stableParts) IngestStats(dst []core.PartitionIngestStats) []core.PartitionIngestStats {
	if obs, ok := sp.inner.(core.IngestObservable); ok {
		return obs.IngestStats(dst)
	}
	return dst
}

// checkpointableViews probes each partition stream for the offset
// protocol, unwrapping decorators; non-checkpointable partitions get
// nil entries.
func checkpointableViews(streams []core.PartitionStream) []core.CheckpointablePartition {
	out := make([]core.CheckpointablePartition, len(streams))
	for i, ps := range streams {
		if cp, ok := core.AsCheckpointable(ps); ok {
			out[i] = cp
		}
	}
	return out
}

var (
	_ core.PartitionedSource = (*stableParts)(nil)
	_ core.IngestObservable  = (*stableParts)(nil)
)
