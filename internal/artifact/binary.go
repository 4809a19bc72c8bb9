package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer builds a deterministic little-endian payload. Floats are
// written as raw IEEE-754 bit patterns (math.Float64bits), never
// formatted — that is what makes Encode→Decode bit-identical, NaN
// payloads and negative zeros included.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// extend appends n bytes to the payload and returns them for the
// caller to fill: a slice costs one capacity check, not one per
// element.
func (w *Writer) extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	l := len(w.buf)
	w.buf = w.buf[:l+n]
	return w.buf[l:]
}

func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String writes a length-prefixed byte string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s writes a length-prefixed float slice; nil and empty both
// round-trip (nil is distinguished so reflect.DeepEqual holds).
func (w *Writer) F64s(vs []float64) {
	w.sliceHeader(len(vs), vs == nil)
	b := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// Ints writes a length-prefixed int slice.
func (w *Writer) Ints(vs []int) {
	w.sliceHeader(len(vs), vs == nil)
	b := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
}

// sliceHeader writes a presence flag plus length, preserving the
// nil/empty distinction.
func (w *Writer) sliceHeader(n int, isNil bool) {
	w.Bool(!isNil)
	w.U64(uint64(n))
}

// Reader consumes a Writer payload with sticky error handling: the
// first malformed field poisons the reader, every later read returns
// a zero value, and the final Err() check is the single place a
// decoder needs to test. No read ever panics on hostile input.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a payload for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Fail poisons the reader with a decoder-supplied error (first error
// wins, matching the sticky-error contract).
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

// Close verifies the payload was fully consumed — trailing bytes mean
// the payload and the decoder disagree about the schema.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		r.fail("payload has %d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("artifact: payload: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.fail("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, r.off, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Int() int { return int(r.I64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d at offset %d", b[0], r.off-1)
		return false
	}
}

func (r *Reader) String() string {
	return string(r.take(r.Len(1)))
}

// F64s reads a slice F64s wrote, its elements in one bounds-checked
// read.
func (r *Reader) F64s() []float64 {
	b, n := r.slice()
	if n < 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

// Ints reads a slice Ints wrote, its elements in one bounds-checked
// read.
func (r *Reader) Ints() []int {
	b, n := r.slice()
	if n < 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return vs
}

// slice reads a sliceHeader of 8-byte elements and takes their n·8
// bytes at once; n is -1 for a nil slice (or a poisoned reader).
// header bounded n by the remaining payload, so the take cannot fail.
func (r *Reader) slice() ([]byte, int) {
	n := r.header(8)
	if n < 0 {
		return nil, -1
	}
	return r.take(8 * n), n
}

// header reads a sliceHeader; -1 means nil slice (or poisoned reader).
func (r *Reader) header(elemSize int) int {
	present := r.Bool()
	n := r.Len(elemSize)
	if r.err != nil || !present {
		return -1
	}
	return n
}

// Len reads a count written by Writer.Int (or a length prefix) and
// bounds it against the remaining payload, elemSize being the fewest
// bytes one element encodes to, so a corrupt count can neither
// allocate gigabytes nor overflow an int: it poisons the reader and
// reads as 0.
func (r *Reader) Len(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if limit := uint64(len(r.data)-r.off) / uint64(elemSize); n > limit {
		r.fail("%w: length %d exceeds remaining payload", ErrTruncated, n)
		return 0
	}
	return int(n)
}
