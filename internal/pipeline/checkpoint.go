package pipeline

import (
	"fmt"

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
// time once StartPartitionedStream has returned — the run's offsets
// are in place from then on — and after termination (the final
// offsets then cover the whole stream).
//
// The returned blob plus the original inputs are sufficient to resume:
// see ResumeStream. Only sessions over a partitioned source with at
// least one checkpointable partition can checkpoint.
func (s *StreamSession) Checkpoint() (*Checkpoint, error) {
	offs := s.runner.Stats().Committed
	if offs == nil {
		return nil, fmt.Errorf("pipeline: session has no checkpointable partitions")
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
	// may discard its replay state up to there. Only a partition with
	// the offset protocol has a committed offset (-1 otherwise).
	for i, po := range ck.Partitions {
		if po.Checkpointable {
			s.parts[i].(core.CheckpointablePartition).Ack(po.Offset)
		}
	}
	return ck, nil
}

// ResumeStream restarts a partitioned streaming session from a
// checkpoint: each checkpointable partition is sought back to its
// committed offset (core.CheckpointablePartition's SeekTo, which
// ingest.Push answers with replay enabled), and a fresh session is
// started over the repositioned source. cfg and shards should match
// the checkpointed run; operator state is rebuilt from scratch (see
// CheckpointVersion), so the resumed session's explanations reflect
// the replayed tail onward, exactly as an uninterrupted run's would
// once the same points have flowed through.
func ResumeStream(parts core.PartitionedSource, cfg Config, shards int, ck *Checkpoint) (*StreamSession, error) {
	if ck == nil {
		return nil, fmt.Errorf("pipeline: nil checkpoint")
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("pipeline: unsupported checkpoint version %d (want %d)", ck.Version, CheckpointVersion)
	}
	streams := parts.Partitions()
	if len(ck.Partitions) != len(streams) {
		return nil, fmt.Errorf("pipeline: checkpoint has %d partitions, source has %d", len(ck.Partitions), len(streams))
	}
	// Entry i must name partition i: a blob that names one partition
	// twice never names another, whose unacked tail would then be
	// silently skipped.
	for i, po := range ck.Partitions {
		if po.Partition != i {
			return nil, fmt.Errorf("pipeline: checkpoint entry %d names partition %d", i, po.Partition)
		}
	}
	for _, po := range ck.Partitions {
		if !po.Checkpointable {
			continue
		}
		// A blob is input: one that gives an offset to a partition
		// without the offset protocol is refused, not asserted.
		cp, ok := streams[po.Partition].(core.CheckpointablePartition)
		if !ok {
			return nil, fmt.Errorf("pipeline: checkpoint gives partition %d an offset, but it has no offset protocol", po.Partition)
		}
		if err := cp.SeekTo(po.Offset); err != nil {
			return nil, fmt.Errorf("pipeline: resuming partition %d: %w", po.Partition, err)
		}
	}
	return StartPartitionedStream(parts, cfg, shards)
}
