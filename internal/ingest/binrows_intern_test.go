package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// internRow is one MBR1 row of internSchema as the test writes it: its
// attribute values, and how it fails, if it does.
type internRow struct {
	attrs []string
	// cutAt, when positive, ends the body cutAt attributes in: with
	// badLen the last attribute declares more bytes than the body has
	// left, without it the body ends where that attribute's length
	// should start.
	cutAt    int
	badLen   bool
	trailing bool // a stray byte after the last attribute
}

var internSchema = Schema{Metrics: []string{"m"}, Attributes: []string{"a", "b", "c", "d"}}

// appendInternRow appends r's length-prefixed body to frame.
func appendInternRow(frame []byte, r internRow) []byte {
	body := []byte{0}
	body = binary.AppendUvarint(body, 1)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(1.5))
	body = binary.AppendUvarint(body, uint64(len(r.attrs)))
	for j, a := range r.attrs {
		if r.cutAt > 0 && j == r.cutAt {
			if r.badLen {
				body = binary.AppendUvarint(body, uint64(len(a)+40))
				body = append(body, a...)
			}
			break
		}
		body = binary.AppendUvarint(body, uint64(len(a)))
		body = append(body, a...)
	}
	if r.trailing {
		body = append(body, 0xff)
	}
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	return append(frame, body...)
}

// TestBinaryRowInternsLikeOneAttributeAtATime: frames whose rows bring
// new values mid-frame, and frames cut short by a bad row — failing on an
// attribute's length, on its bytes, or after all of them — leave the
// session's encoder with the dictionary that interning each attribute
// as it was read leaves: same ids, same values, the bad row's attributes
// before its failure included.
func TestBinaryRowInternsLikeOneAttributeAtATime(t *testing.T) {
	row := func(i int, fresh string) internRow {
		return internRow{attrs: []string{
			fmt.Sprintf("a%d", i%3), fresh + fmt.Sprintf("b%d", i%5), fmt.Sprintf("c%d", i%2), fresh + "d",
		}}
	}
	var frames [][]internRow
	// New values appear mid-frame, in columns b and d.
	var f []internRow
	for i := 0; i < 12; i++ {
		fresh := ""
		if i >= 6 {
			fresh = "new-"
		}
		f = append(f, row(i, fresh))
	}
	frames = append(frames, f)
	// A bad row at each place a row can fail, each carrying values no
	// earlier row had; the rows after it are never read.
	for k, bad := range []internRow{
		{cutAt: 2},
		{cutAt: 3, badLen: true},
		{cutAt: 1, badLen: true},
		{trailing: true},
	} {
		bad.attrs = []string{fmt.Sprintf("bad%d-a", k), fmt.Sprintf("bad%d-b", k), fmt.Sprintf("bad%d-c", k), fmt.Sprintf("bad%d-d", k)}
		frames = append(frames, []internRow{row(k, "x-"), row(k+1, "y-"), bad, row(k+2, "never-")})
	}
	frames = append(frames, []internRow{row(20, "last-"), row(21, "")})

	enc := encode.NewEncoder(internSchema.Attributes...)
	oracle := encode.NewEncoder(internSchema.Attributes...)
	var d *BinaryRowReader
	for fi, rows := range frames {
		frame := []byte(BinaryMagic)
		for _, r := range rows {
			frame = appendInternRow(frame, r)
		}
		if d == nil {
			d = NewBinaryRowReader(bytes.NewReader(frame), internSchema, enc)
		} else {
			d.Reset(bytes.NewReader(frame))
		}
		_, err := d.ReadInto(&core.Batch{}, len(rows)+1)
		failed := false
		for _, r := range rows {
			n := len(r.attrs)
			if r.cutAt > 0 {
				n = r.cutAt
			}
			for j, a := range r.attrs[:n] {
				oracle.Encode(j, a)
			}
			if r.cutAt > 0 || r.trailing {
				failed = true
				break
			}
		}
		if failed != (err != nil && err != io.EOF) {
			t.Fatalf("frame %d: read error %v, want a failure: %v", fi, err, failed)
		}
		if enc.Size() != oracle.Size() {
			t.Fatalf("frame %d: %d interned values, one at a time interns %d", fi, enc.Size(), oracle.Size())
		}
		for id := int32(0); int(id) < oracle.Size(); id++ {
			if got, want := enc.Decode(id), oracle.Decode(id); got != want {
				t.Fatalf("frame %d: id %d is %v, one at a time it is %v", fi, id, got, want)
			}
		}
	}
}
