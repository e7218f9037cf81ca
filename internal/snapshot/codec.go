package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc builds a section payload from fixed-width little-endian scalars
// and uvarint-prefixed blobs. It only grows a buffer and cannot fail.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

func (e *Enc) U8(v uint8)    { e.buf = append(e.buf, v) }
func (e *Enc) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Enc) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Enc) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Enc) I32(v int32)   { e.U32(uint32(v)) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) Int(v int)     { e.I64(int64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Count writes an element count as a uvarint.
func (e *Enc) Count(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

// Blob writes a uvarint length followed by the bytes.
func (e *Enc) Blob(b []byte) {
	e.Count(len(b))
	e.buf = append(e.buf, b...)
}

// Str writes a uvarint length followed by the string bytes.
func (e *Enc) Str(s string) {
	e.Count(len(s))
	e.buf = append(e.buf, s...)
}

// Dec reads an Enc payload back; the campaign META section is its one
// reader. It is error-sticky: the first defect is kept and every later
// read returns zero values, so a decoder can read a whole structure and
// check once, with Finish. Counts are validated against the bytes
// actually remaining, so a hostile length can never drive an
// allocation larger than the input itself.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Remaining returns how many undecoded bytes are left.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Finish errors if any input remains undecoded (a length/layout
// mismatch that scalar reads alone would not catch).
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.failf("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

func (d *Dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.failf("need %d bytes, %d remain: %v", n, len(d.buf)-d.off, ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) Int() int     { return int(d.I64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads an element count and validates it against the remaining
// input, assuming each element occupies at least elemMin bytes. This
// is the allocation cap: a decoder sizing a slice by Count can never
// be made to allocate beyond the input length.
func (d *Dec) Count(elemMin int) int {
	if d.err != nil {
		return 0
	}
	n, sz := binary.Uvarint(d.buf[d.off:])
	if sz <= 0 {
		d.failf("bad uvarint: %v", ErrTruncated)
		return 0
	}
	// A trailing zero byte pads the value without changing it; Enc
	// never writes one, and accepting it would let two byte strings
	// decode alike.
	if sz > 1 && d.buf[d.off+sz-1] == 0 {
		d.failf("non-minimal uvarint")
		return 0
	}
	d.off += sz
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(d.Remaining()/elemMin) {
		d.failf("count %d exceeds %d remaining bytes (elements are >=%d bytes)", n, d.Remaining(), elemMin)
		return 0
	}
	return int(n)
}

// Str reads a uvarint length and that many bytes as a string.
func (d *Dec) Str() string {
	n := d.Count(1)
	b := d.take(n)
	return string(b)
}
