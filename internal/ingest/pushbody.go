package ingest

import (
	"encoding/json"
	"fmt"
	"io"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// PushDecoder decodes push request bodies (mbserver's
// POST /stream/{id}/push) into batches, in either push wire format:
//
//   - NDJSON, one JSON object per record:
//     {"metrics":[...],"attributes":{"col":"value",...},"time":t}.
//     "metrics" lists the values of the schema's metrics in order,
//     "attributes" maps every schema attribute column to its value,
//     and "time" is the optional event time in seconds (0 when the
//     record omits it).
//   - The binary row format "MBR1" (see BinaryRowReader), for
//     high-rate producers that want to skip JSON entirely.
//
// A decoder is bound to one schema and encoder, through which it
// interns attribute values, and keeps its scratch between bodies: the
// binary row reader, the NDJSON record's metrics slice and attribute
// map, and the encoded-id buffer. A warm decoder therefore decodes a
// binary body without allocating; on the NDJSON path the per-record
// strings the JSON decoder materializes are the allocation floor. Not
// safe for concurrent use: pool decoders across requests.
type PushDecoder struct {
	schema Schema
	enc    *encode.Encoder
	bin    *BinaryRowReader
	rec    pushRecord
	abuf   []int32
}

// pushRecord is one NDJSON record.
type pushRecord struct {
	Metrics    []float64         `json:"metrics"`
	Attributes map[string]string `json:"attributes"`
	Time       float64           `json:"time,omitempty"`
}

// NewPushDecoder returns a decoder for bodies under schema, interning
// attribute values through enc.
func NewPushDecoder(schema Schema, enc *encode.Encoder) *PushDecoder {
	return &PushDecoder{schema: schema, enc: enc, abuf: make([]int32, len(schema.Attributes))}
}

// Decode appends every record of body to dst: the binary row format
// when binary is set, NDJSON otherwise. An error names the record it
// stopped at; the records before it are left in dst.
func (d *PushDecoder) Decode(body io.Reader, binary bool, dst *core.Batch) error {
	if binary {
		return d.decodeBinary(body, dst)
	}
	return d.decodeNDJSON(body, dst)
}

func (d *PushDecoder) decodeBinary(body io.Reader, dst *core.Batch) error {
	if d.bin == nil {
		d.bin = NewBinaryRowReader(body, d.schema, d.enc)
	} else {
		d.bin.Reset(body)
	}
	for {
		if _, err := d.bin.ReadInto(dst, 8192); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func (d *PushDecoder) decodeNDJSON(body io.Reader, dst *core.Batch) error {
	dec := json.NewDecoder(body)
	for line := 1; ; line++ {
		// Reset the reused scratch so a field omitted by this record
		// cannot inherit the previous record's value.
		d.rec.Metrics = d.rec.Metrics[:0]
		d.rec.Time = 0
		clear(d.rec.Attributes)
		if err := dec.Decode(&d.rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("record %d: %w", line, err)
		}
		if len(d.rec.Metrics) != len(d.schema.Metrics) {
			return fmt.Errorf("record %d: %d metrics, want %d (%v)", line, len(d.rec.Metrics), len(d.schema.Metrics), d.schema.Metrics)
		}
		for j, col := range d.schema.Attributes {
			v, ok := d.rec.Attributes[col]
			if !ok {
				return fmt.Errorf("record %d: missing attribute %q", line, col)
			}
			d.abuf[j] = d.enc.Encode(j, v)
		}
		dst.Append(d.rec.Metrics, d.abuf, d.rec.Time)
	}
}
