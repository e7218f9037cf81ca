package monitor

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// The push-ingest body is {"records":[{...}, ...]}, one object per
// frame:
//
//	time_us    int64  capture timestamp, microseconds of trace time
//	rate       uint16 units of 100 kb/s (radiotap: 10 = 1 Mb/s, 110 = 11 Mb/s)
//	channel    int    2.4 GHz channel number
//	signal_dbm int8   optional radio metadata
//	noise_dbm  int8
//	orig_len   int    on-air length; 0 or omitted = decoded frame length
//	frame_hex  string the MAC frame, hex encoded
//
// ingestDecoder parses it in one pass without reflection. Its accept
// set and results are those of encoding/json decoding into the
// equivalent tagged struct: keys match case-insensitively after
// unescaping, the last duplicate wins, null leaves a field as it was,
// unknown keys are skipped but syntax-checked, integers must be
// integral and in range for their field, nesting deeper than
// maxNestingDepth is refused, and only the first JSON value of the
// body is read. Every frame_hex is hex-decoded into one arena per
// batch, after the whole body has parsed — so a syntax or type error
// anywhere outranks a bad frame_hex in an earlier record.
type ingestDecoder struct {
	buf  bytes.Buffer // holds the request body; pooled, so records never alias it
	body []byte       // buf's bytes
	pos  int
	// recs holds each array index's state. Like the slice encoding/json
	// grows, it outlives a duplicate "records" key: a second array
	// decodes into the elements the first one left.
	recs  []wireRecord
	n     int    // records in the last "records" array
	cur   int    // the element recordMember fills
	unesc []byte // frame_hex values that needed unescaping
	key   []byte // the current key, when it needed unescaping
	stack []byte // closers of the containers open in skip
}

// wireRecord is one array element as decoded so far. frame_hex is kept
// as a span of body (or of unesc, when escaped) and decoded at the end.
type wireRecord struct {
	timeUS           int64
	channel, origLen int
	rate             uint16
	signal, noise    int8
	hexEscaped       bool
	hexOff, hexEnd   int
}

// MaxIngestBytes caps an ingest request body. At ~2x hex expansion it
// admits on the order of a million typical frames per push — far past
// any sane batch — while bounding what a misbehaving pusher can make
// the daemon buffer.
const MaxIngestBytes = 16 << 20

// maxNestingDepth is encoding/json's limit on nested arrays and
// objects, counted from the outermost value.
const maxNestingDepth = 10000

// maxPooledDecoder bounds the storage a pooled decoder keeps: one
// outsized body should not pin its buffers for every later batch.
const maxPooledDecoder = 1 << 20

var decoders = sync.Pool{New: func() any { return new(ingestDecoder) }}

func getDecoder() *ingestDecoder { return decoders.Get().(*ingestDecoder) }

func putDecoder(d *ingestDecoder) {
	size := d.buf.Cap() + cap(d.unesc) + cap(d.key) + cap(d.stack) +
		cap(d.recs)*int(unsafe.Sizeof(wireRecord{}))
	if size <= maxPooledDecoder {
		decoders.Put(d)
	}
}

// fieldError locates a per-record validation failure for the
// structured ingest error response.
type fieldError struct {
	Record int
	Field  string
	Value  string
	Err    error
}

func (e *fieldError) Error() string {
	return fmt.Sprintf("record %d: %s: %v", e.Record, e.Field, e.Err)
}
func (e *fieldError) Unwrap() error { return e.Err }

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// readBody reads r to its end into the decoder's buffer. size is the
// declared Content-Length, or -1 when unknown.
func (d *ingestDecoder) readBody(r io.Reader, size int64) error {
	d.buf.Reset()
	if size > 0 {
		// ReadFrom wants MinRead bytes free for the read that reports
		// EOF; growing by that much more reads the body into one
		// allocation.
		d.buf.Grow(int(min(size, MaxIngestBytes)) + bytes.MinRead)
	}
	_, err := d.buf.ReadFrom(r)
	d.body = d.buf.Bytes()
	return err
}

// decode parses the body read by readBody into records. A
// frame_hex that is not hex yields a *fieldError; any other failure
// is a plain error.
func (d *ingestDecoder) decode() ([]capture.Record, error) {
	d.pos, d.n = 0, 0
	d.recs, d.unesc = d.recs[:0], d.unesc[:0]
	if err := d.top(); err != nil {
		return nil, fmt.Errorf("%w at offset %d", err, d.pos)
	}
	return d.records()
}

// top parses the first JSON value of the body; whatever follows it is
// never read, as with json.Decoder.
func (d *ingestDecoder) top() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.object(1, d.topMember)
	case 'n':
		return d.literal("null")
	}
	return errMismatch(c, "an object")
}

// topMember parses the value of one top-level key.
func (d *ingestDecoder) topMember(key []byte, depth int) error {
	if !bytes.EqualFold(key, recordsKey) {
		return d.skip(depth)
	}
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		// null zeroes the slice: earlier elements are forgotten.
		d.recs, d.n = d.recs[:0], 0
		return d.literal("null")
	case '[':
		return d.array(depth + 1)
	}
	return errMismatch(c, "an array")
}

// array parses the "records" array whose '[' is at d.pos.
func (d *ingestDecoder) array(depth int) error {
	d.pos++
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		d.recs, d.n = d.recs[:0], 0 // [] replaces the slice with a new one
		return nil
	}
	for i := 0; ; i++ {
		if i == len(d.recs) {
			if i == cap(d.recs) {
				// Double: append's quarter steps for large slices
				// would allocate five times the final size on a body
				// of a million empty records.
				d.recs = append(make([]wireRecord, 0, 2*i+1), d.recs...)
			}
			d.recs = append(d.recs, wireRecord{})
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case '{':
			d.cur = i
			err = d.object(depth+1, d.recordMember)
		case 'n':
			err = d.literal("null") // a null element keeps its state
		default:
			err = errMismatch(c, "an object")
		}
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		d.pos++
		switch c {
		case ',':
		case ']':
			d.n = i + 1
			return nil
		default:
			return errSyntax(c, "after array element")
		}
	}
}

// The decoded field names, in field order.
var (
	recordsKey   = []byte("records")
	recordFields = [][]byte{
		[]byte("time_us"), []byte("rate"), []byte("channel"),
		[]byte("signal_dbm"), []byte("noise_dbm"), []byte("orig_len"),
		[]byte("frame_hex"),
	}
)

const (
	fieldTimeUS = iota
	fieldRate
	fieldChannel
	fieldSignal
	fieldNoise
	fieldOrigLen
	fieldFrameHex
)

// recordField returns the field key names, or -1. Like encoding/json
// it tries an exact match before bytes.EqualFold.
func recordField(key []byte) int {
	for f, name := range recordFields {
		if string(key) == string(name) {
			return f
		}
	}
	for f, name := range recordFields {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return -1
}

// recordMember parses the value of one key of element d.cur.
func (d *ingestDecoder) recordMember(key []byte, depth int) error {
	f := recordField(key)
	if f < 0 {
		return d.skip(depth)
	}
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null") // null leaves the field unchanged
	}
	w := &d.recs[d.cur]
	if f == fieldFrameHex {
		if c != '"' {
			return errMismatch(c, "a string")
		}
		return d.hexString(w)
	}
	if c != '-' && (c < '0' || c > '9') {
		return errMismatch(c, "a number")
	}
	start := d.pos
	if err := d.number(); err != nil {
		return err
	}
	num := d.body[start:d.pos]
	v, ok := parseInt(num, fieldBounds[f][0], fieldBounds[f][1])
	if !ok {
		return fmt.Errorf("number %s does not fit field %s", num, recordFields[f])
	}
	switch f {
	case fieldTimeUS:
		w.timeUS = v
	case fieldRate:
		w.rate = uint16(v)
	case fieldChannel:
		w.channel = int(v)
	case fieldSignal:
		w.signal = int8(v)
	case fieldNoise:
		w.noise = int8(v)
	case fieldOrigLen:
		w.origLen = int(v)
	}
	return nil
}

// fieldBounds is each integer field's range, from its Go type.
var fieldBounds = [...][2]int64{
	fieldTimeUS:  {math.MinInt64, math.MaxInt64},
	fieldRate:    {0, math.MaxUint16},
	fieldChannel: {math.MinInt, math.MaxInt},
	fieldSignal:  {math.MinInt8, math.MaxInt8},
	fieldNoise:   {math.MinInt8, math.MaxInt8},
	fieldOrigLen: {math.MinInt, math.MaxInt},
}

// parseInt converts a JSON number to an integer in [lo, hi] the way
// encoding/json fills an integer field: a fraction or exponent, or a
// value out of range, does not fit. A field with lo == 0 is unsigned
// and, like strconv.ParseUint, refuses any sign, even "-0".
func parseInt(num []byte, lo, hi int64) (int64, bool) {
	neg := num[0] == '-'
	if neg {
		if lo == 0 {
			return 0, false
		}
		num = num[1:]
	}
	limit := uint64(hi)
	if neg {
		limit = uint64(-(lo + 1)) + 1
	}
	var u uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		dgt := uint64(c - '0')
		if u > (limit-dgt)/10 {
			return 0, false
		}
		u = u*10 + dgt
	}
	if neg {
		return int64(-u), true // two's complement: exact down to -1<<63
	}
	return int64(u), true
}

// hexString records the frame_hex string at d.pos as element w's
// source, unescaping it into d.unesc when it is not plain ASCII.
func (d *ingestDecoder) hexString(w *wireRecord) error {
	start := d.pos + 1
	plain, err := d.str()
	if err != nil {
		return err
	}
	raw := d.body[start : d.pos-1]
	if plain {
		w.hexEscaped, w.hexOff, w.hexEnd = false, start, d.pos-1
		return nil
	}
	off := len(d.unesc)
	d.unesc = unescape(d.unesc, raw)
	w.hexEscaped, w.hexOff, w.hexEnd = true, off, len(d.unesc)
	return nil
}

// records hex-decodes every element's frame_hex into one arena and
// builds the batch.
func (d *ingestDecoder) records() ([]capture.Record, error) {
	wire := d.recs[:d.n]
	size := 0
	for i := range wire {
		size += len(d.hexSrc(&wire[i])) / 2
	}
	arena := make([]byte, size)
	out := make([]capture.Record, len(wire))
	for i := range wire {
		w := &wire[i]
		src := d.hexSrc(w)
		n := len(src) / 2
		frame := arena[:n:n]
		if _, err := hex.Decode(frame, src); err != nil {
			value := string(src[:min(len(src), 64)])
			if len(src) > 64 {
				value += "…"
			}
			return nil, &fieldError{Record: i, Field: "frame_hex", Value: value, Err: err}
		}
		arena = arena[n:]
		orig := w.origLen
		if orig == 0 {
			orig = n
		}
		out[i] = capture.Record{
			Time:      phy.Micros(w.timeUS),
			Rate:      phy.Rate(w.rate),
			Channel:   phy.Channel(w.channel),
			SignalDBm: w.signal,
			NoiseDBm:  w.noise,
			OrigLen:   orig,
			Frame:     frame,
		}
	}
	return out, nil
}

func (d *ingestDecoder) hexSrc(w *wireRecord) []byte {
	if w.hexEscaped {
		return d.unesc[w.hexOff:w.hexEnd]
	}
	return d.body[w.hexOff:w.hexEnd]
}

// object parses the object whose '{' is at d.pos, at nesting depth
// depth, calling member with each key and d.pos at its value.
func (d *ingestDecoder) object(depth int, member func(key []byte, depth int) error) error {
	d.pos++
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.objectKey()
		if err != nil {
			return err
		}
		if err := member(key, depth); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		d.pos++
		switch c {
		case ',':
		case '}':
			return nil
		default:
			return errSyntax(c, "after object key:value pair")
		}
	}
}

// objectKey parses `"key" :` and returns the unescaped key, which is
// valid only until the next key.
func (d *ingestDecoder) objectKey() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, errSyntax(c, "looking for beginning of object key string")
	}
	start := d.pos + 1
	plain, err := d.str()
	if err != nil {
		return nil, err
	}
	key := d.body[start : d.pos-1]
	if !plain {
		d.key = unescape(d.key[:0], key)
		key = d.key
	}
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, errSyntax(c, "after object key")
	}
	d.pos++
	return key, nil
}

// skip syntax-checks and passes over the value at d.pos, which sits
// inside a container at nesting depth depth. It keeps the open
// containers on a stack rather than recursing, so hostile nesting
// costs one byte per level up to maxNestingDepth.
func (d *ingestDecoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack[:0] }()
	for {
		// A value.
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch {
		case c == '{' || c == '[':
			if depth+len(stack)+1 > maxNestingDepth {
				return errors.New("exceeded max depth")
			}
			closer := byte('}')
			if c == '[' {
				closer = ']'
			}
			stack = append(stack, closer)
			d.pos++
			if c, err = d.peek(); err != nil {
				return err
			}
			if c == closer {
				d.pos++
				stack = stack[:len(stack)-1]
			} else {
				if closer == '}' {
					if _, err := d.objectKey(); err != nil {
						return err
					}
				}
				continue
			}
		case c == '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		case c == '-' || ('0' <= c && c <= '9'):
			err = d.number()
		default:
			return errSyntax(c, "looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// After a value: close containers until one continues.
		for {
			if len(stack) == 0 {
				return nil
			}
			if c, err = d.peek(); err != nil {
				return err
			}
			d.pos++
			closer := stack[len(stack)-1]
			if c == closer {
				stack = stack[:len(stack)-1]
				continue
			}
			if c != ',' {
				return errSyntax(c, "after container element")
			}
			if closer == '}' {
				if _, err := d.objectKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// peek skips JSON whitespace and returns the byte at d.pos.
func (d *ingestDecoder) peek() (byte, error) {
	for ; d.pos < len(d.body); d.pos++ {
		switch c := d.body[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errUnexpectedEnd
}

// literal consumes the keyword lit at d.pos.
func (d *ingestDecoder) literal(lit string) error {
	if end := d.pos + len(lit); end <= len(d.body) && string(d.body[d.pos:end]) == lit {
		d.pos = end
		return nil
	}
	return fmt.Errorf("invalid literal, want %s", lit)
}

// number consumes a JSON number at d.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *ingestDecoder) number() error {
	b, i := d.body, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return errUnexpectedEnd
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return errSyntax(b[i], "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return errUnexpectedEnd
		}
		if b[i] < '0' || b[i] > '9' {
			return errSyntax(b[i], "after decimal point in numeric literal")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return errUnexpectedEnd
		}
		if b[i] < '0' || b[i] > '9' {
			return errSyntax(b[i], "in exponent of numeric literal")
		}
		i = digits(b, i)
	}
	d.pos = i
	return nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str consumes the string whose opening quote is at d.pos. plain
// reports that it holds only printable ASCII without escapes, so its
// raw bytes are its value.
func (d *ingestDecoder) str() (plain bool, err error) {
	b, i := d.body, d.pos+1
	plain = true
	for i < len(b) {
		// Eight plain bytes at a time: none is a quote, a backslash,
		// a control byte or non-ASCII. At least one byte stays for the
		// switch below.
		for i+8 < len(b) {
			w := binary.LittleEndian.Uint64(b[i:])
			if (hasLess(w, 0x20)|hasZero(w^(lsb*'"'))|hasZero(w^(lsb*'\\'))|w)&msb != 0 {
				break
			}
			i += 8
		}
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(b) {
				return false, errUnexpectedEnd
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(b) {
						return false, errUnexpectedEnd
					}
					if unhex(b[k]) < 0 {
						return false, errSyntax(b[k], "in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				return false, errSyntax(b[i+1], "in string escape code")
			}
		case c < 0x20:
			return false, errSyntax(c, "in string literal")
		default:
			plain = plain && c < utf8.RuneSelf
			i++
		}
	}
	return false, errUnexpectedEnd
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// hasZero has the high bit of some byte set when a byte of w is zero
// (and only then, as every caller also tests w's own high bits).
func hasZero(w uint64) uint64 { return (w - lsb) &^ w }

// hasLess is hasZero for bytes below n (n <= 0x80).
func hasLess(w, n uint64) uint64 { return (w - lsb*n) &^ w }

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the four hex digits after a `\u` at s[0:2], or returns -1
// when s does not start with one.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := unhex(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

// unescape appends the value of a syntax-checked string body to dst,
// as encoding/json unquotes it: escapes resolved, surrogate pairs
// joined, and lone surrogates and invalid UTF-8 bytes each replaced
// with U+FFFD.
func unescape(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

func errSyntax(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s", c, context)
}

func errMismatch(c byte, want string) error {
	return fmt.Errorf("cannot decode value starting %q, want %s", c, want)
}
