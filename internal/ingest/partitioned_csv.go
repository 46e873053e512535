package ingest

import (
	"context"
	"fmt"
	"io"
	"os"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// PartitionedCSV is a partitioned pull-into-push source over several
// CSV readers: one partition per reader (typically one file per
// producer, the on-disk analog of Kafka topic partitions), all
// projecting through one shared schema and encoder so attribute ids
// agree across partitions. Each partition is an independent CSVSource;
// the streaming engine consumes them concurrently, one ingest
// goroutine each, so N files are parsed, encoded, and routed in
// parallel.
//
// The shared encoder interns attribute ids under its own lock
// (encode.Encoder is safe for concurrent use), which preserves the
// dense-id invariant the explanation structures rely on. Cancellation
// is checked between reads — a CSV read from a local file does not
// block indefinitely, so mid-read cancellation is not needed here.
type PartitionedCSV struct {
	parts []*csvPartition
}

type csvPartition struct {
	src *CSVSource
	// path/schema/enc support SeekTo for path-opened partitions
	// (OpenPartitionedCSV): resume reopens the file and skips rows.
	// Reader-backed partitions (path == "") cannot seek.
	path   string
	schema Schema
	enc    *encode.Encoder
	file   *os.File // the open file behind src, when path-opened
}

// NextBatchInto implements core.PartitionStream: rows are parsed in
// place into the engine-loaned recycled batch, so steady-state CSV
// ingest allocates only the csv.Reader's per-record internals.
func (p *csvPartition) NextBatchInto(ctx context.Context, dst *core.Batch, max int) (*core.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.src.NextInto(dst, max); err != nil {
		return nil, err
	}
	return dst, nil
}

// Offset implements core.CheckpointablePartition: the number of rows
// (points) delivered so far. Read by the engine before its ingest
// goroutines start and from the consuming goroutine thereafter.
func (p *csvPartition) Offset() int64 { return int64(p.src.line) }

// Ack implements core.CheckpointablePartition as a no-op: a CSV file
// is its own durable replay log, nothing needs trimming.
func (p *csvPartition) Ack(int64) {}

// SeekTo implements core.SeekablePartition for path-opened partitions
// by reopening the file and skipping off rows (re-encoding skipped
// attributes is harmless — encoder interning is idempotent). Call only
// between sessions, never while a consumer is reading.
func (p *csvPartition) SeekTo(off int64) error {
	if off == int64(p.src.line) {
		return nil
	}
	if p.path == "" {
		return fmt.Errorf("ingest: CSV partition is not seekable (opened from a reader; use OpenPartitionedCSV)")
	}
	f, err := os.Open(p.path)
	if err != nil {
		return err
	}
	src, err := NewCSVSource(f, p.schema, p.enc)
	if err != nil {
		f.Close()
		return err
	}
	var scratch core.Batch
	for int64(src.line) < off {
		n := off - int64(src.line)
		if n > 8192 {
			n = 8192
		}
		scratch.Reset()
		if err := src.NextInto(&scratch, int(n)); err != nil {
			f.Close()
			return fmt.Errorf("ingest: seeking CSV partition to row %d: %w", off, err)
		}
	}
	if p.file != nil {
		p.file.Close()
	}
	p.src, p.file = src, f
	return nil
}

// NewPartitionedCSV builds a partitioned source over readers, one
// partition each. Every reader must start with a header row naming the
// schema columns (the usual per-file layout). enc is shared across
// partitions and must be the encoder later used for decoration.
func NewPartitionedCSV(schema Schema, enc *encode.Encoder, readers ...io.Reader) (*PartitionedCSV, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("ingest: partitioned CSV requires at least one reader")
	}
	p := &PartitionedCSV{}
	for i, r := range readers {
		src, err := NewCSVSource(r, schema, enc)
		if err != nil {
			return nil, fmt.Errorf("ingest: partition %d: %w", i, err)
		}
		p.parts = append(p.parts, &csvPartition{src: src})
	}
	return p, nil
}

// OpenPartitionedCSV opens each path as one partition. The returned
// source owns the files; Close releases them (callers stop the
// consuming session first). Path-opened partitions are seekable
// (core.SeekablePartition): a resumed session reopens each file and
// skips to its checkpointed row.
func OpenPartitionedCSV(schema Schema, enc *encode.Encoder, paths ...string) (*PartitionedCSV, error) {
	readers := make([]io.Reader, 0, len(paths))
	var files []*os.File
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			for _, c := range files {
				c.Close()
			}
			return nil, err
		}
		readers = append(readers, f)
		files = append(files, f)
	}
	p, err := NewPartitionedCSV(schema, enc, readers...)
	if err != nil {
		for _, c := range files {
			c.Close()
		}
		return nil, err
	}
	for i, pp := range p.parts {
		pp.path = paths[i]
		pp.schema = schema
		pp.enc = enc
		pp.file = files[i]
	}
	return p, nil
}

// NumPartitions reports the partition count.
func (p *PartitionedCSV) NumPartitions() int { return len(p.parts) }

// Partitions implements core.PartitionedSource.
func (p *PartitionedCSV) Partitions() []core.PartitionStream {
	out := make([]core.PartitionStream, len(p.parts))
	for i, pp := range p.parts {
		out[i] = pp
	}
	return out
}

// Close releases any files opened by OpenPartitionedCSV (including
// files reopened by SeekTo). Safe to call once the consuming stream
// has terminated.
func (p *PartitionedCSV) Close() error {
	var first error
	for _, pp := range p.parts {
		if pp.file != nil {
			if err := pp.file.Close(); err != nil && first == nil {
				first = err
			}
			pp.file = nil
		}
	}
	return first
}

var _ core.PartitionedSource = (*PartitionedCSV)(nil)
var _ core.PartitionedSource = (*Push)(nil)
var _ core.SeekablePartition = (*csvPartition)(nil)
