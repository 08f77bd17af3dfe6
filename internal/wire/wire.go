// Package wire is a hand-rolled, zero-alloc, length-prefixed binary codec
// for every per-op RPC message (put/get/batch/repair/ec, the TCP front's
// proxy envelope, the coord lock); control-plane messages stay on gob. It
// also holds the table of status codes a reply carries (status.go), whose
// details are bodies in the same encoding.
//
// Frame layout (DESIGN.md §13):
//
//	byte 0: magic0 = 0xBD
//	byte 1: magic1 = 0x57 ('W')
//	byte 2: version = 0x01
//	byte 3: method tag (one byte per message type)
//	bytes 4..: message body (varint lengths, fixed field order)
//
// Method tags are allotted to the packages that define messages in fixed
// ranges, so no two messages share a tag; each package's tests check that
// its tags are unique and inside its range:
//
//	0x01–0x3F  internal/wiera  data requests and replies, ProxyRequest,
//	                           replication, EC fragments, repair
//	0x40–0x4F  internal/coord  session and lock messages
//	0x50–0xFF  unassigned
//
// The first byte 0xBD is deliberately chosen so a frame can never be
// mistaken for a gob stream: gob's first byte is an unsigned length
// (0x00..0x7F) or a length-prefix marker (0xF8..0xFF), never 0x80..0xF7.
// transport.Decode uses Is() to refuse a frame handed to a gob-only type
// instead of misparsing it.
//
// Body encoding primitives:
//   - uvarint: LEB128, as in encoding/binary.
//   - svarint: zigzag-mapped uvarint for signed ints.
//   - bytes/string: uvarint length then raw bytes. Decoded []byte fields
//     alias the frame (zero-copy); decoded strings reuse the existing
//     string when the bytes match, so steady-state decode into a reused
//     struct performs zero allocations.
//   - time.Time: one flag byte (0 = zero time) then svarint UnixNano.
//   - bool: one byte, strictly 0 or 1.
package wire

import (
	"errors"
	"fmt"
	"time"
)

const (
	magic0  = 0xBD
	magic1  = 0x57 // 'W'
	Version = 0x01

	// HeaderLen is the fixed frame header size: magic (2) + version + tag.
	HeaderLen = 4
)

var (
	// ErrTruncated is returned when a frame ends before its declared
	// contents; decoding never panics on short input.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrCorrupt is returned for structurally invalid bodies (overlong
	// varints, non-canonical bools, counts exceeding the frame).
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrNotWire is returned by Open and Unmarshal when the payload is not
	// a wire frame.
	ErrNotWire = errors.New("wire: not a wire frame")
	// ErrVersion is returned for frames with an unknown codec version.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrTag is returned when a frame's method tag does not match the
	// message type it is being decoded into.
	ErrTag = errors.New("wire: frame tag does not match message type")
	// ErrTrailing is returned when a frame has bytes left over after the
	// message body has been fully decoded.
	ErrTrailing = errors.New("wire: trailing bytes after message body")
)

// Marshaler is implemented (with value receivers) by messages that have a
// hand-rolled binary encoding.
type Marshaler interface {
	// WireTag returns the one-byte method tag identifying the message type.
	WireTag() byte
	// WireSize returns the exact encoded body size in bytes, so Marshal
	// can allocate once (or AppendFrame can ensure capacity once).
	WireSize() int
	// AppendWire appends the message body to dst and returns it.
	AppendWire(dst []byte) []byte
}

// Unmarshaler is implemented (with pointer receivers) by messages that can
// decode themselves from a frame body. Implementations construct a Reader
// locally (r := NewReader(body)) and finish with r.Close() — keeping the
// Reader a concrete local lets escape analysis stack-allocate it, which is
// what makes decode zero-alloc. Taking a *Reader through the interface
// would force a heap allocation per decode.
type Unmarshaler interface {
	Marshaler
	UnmarshalWire(body []byte) error
}

// Is reports whether data begins with a wire frame header.
func Is(data []byte) bool {
	return len(data) >= HeaderLen && data[0] == magic0 && data[1] == magic1
}

// AppendFrame appends a complete frame (header + body) for m to dst.
func AppendFrame(dst []byte, m Marshaler) []byte {
	need := HeaderLen + m.WireSize()
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, magic0, magic1, Version, m.WireTag())
	return m.AppendWire(dst)
}

// Marshal encodes m as a single exact-size frame.
func Marshal(m Marshaler) []byte {
	out := make([]byte, 0, HeaderLen+m.WireSize())
	out = append(out, magic0, magic1, Version, m.WireTag())
	return m.AppendWire(out)
}

// Open validates the frame header and returns the method tag and a Reader
// over the body. It returns ErrNotWire for non-wire payloads.
func Open(data []byte) (byte, Reader, error) {
	if !Is(data) {
		return 0, Reader{}, ErrNotWire
	}
	if data[2] != Version {
		return 0, Reader{}, fmt.Errorf("%w: %d", ErrVersion, data[2])
	}
	return data[3], Reader{buf: data[HeaderLen:]}, nil
}

// Unmarshal decodes a complete frame into m, checking the method tag.
// Trailing-byte rejection is each message's responsibility via
// Reader.Close in its UnmarshalWire.
func Unmarshal(data []byte, m Unmarshaler) error {
	if !Is(data) {
		return ErrNotWire
	}
	if data[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, data[2])
	}
	if tag := data[3]; tag != m.WireTag() {
		return fmt.Errorf("%w: got 0x%02x want 0x%02x", ErrTag, tag, m.WireTag())
	}
	return m.UnmarshalWire(data[HeaderLen:])
}

// ---------------------------------------------------------------------------
// Size helpers (exact encoded sizes, used by WireSize implementations).

// SizeUvarint returns the encoded size of v as a LEB128 uvarint.
func SizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SizeVarint returns the encoded size of v as a zigzag svarint.
func SizeVarint(v int64) int {
	return SizeUvarint(uint64(v)<<1 ^ uint64(v>>63))
}

// SizeBytes returns the encoded size of a length-prefixed byte slice.
func SizeBytes(b []byte) int { return SizeUvarint(uint64(len(b))) + len(b) }

// SizeString returns the encoded size of a length-prefixed string.
func SizeString(s string) int { return SizeUvarint(uint64(len(s))) + len(s) }

// SizeTime returns the encoded size of a time value.
func SizeTime(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + SizeVarint(t.UnixNano())
}

// ---------------------------------------------------------------------------
// Append helpers.

// AppendUvarint appends v as a LEB128 uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendVarint appends v as a zigzag svarint.
func AppendVarint(dst []byte, v int64) []byte {
	return AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends 1 for true, 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendTime appends a zero flag byte, or 1 followed by svarint UnixNano.
// Monotonic clock readings and zone information are not preserved; all
// consumers compare instants (Equal/After), so this is lossless for them.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return AppendVarint(dst, t.UnixNano())
}

// ---------------------------------------------------------------------------
// Reader: a sticky-error cursor over a frame body.

// Reader decodes primitives from a frame body. The first malformed read
// latches an error; subsequent reads return zero values, so decoders can
// run straight-line and check the error once at the end (Close also
// rejects trailing bytes).
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over a raw body (a status detail, or a frame
// body inside UnmarshalWire).
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) }

// Close returns the latched error, or ErrTrailing if body bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf))
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads a LEB128 uvarint. The encoding is strict-canonical:
// varints longer than 10 bytes, a final byte that overflows 64 bits, or a
// non-minimal encoding (a zero continuation byte, e.g. 0xFC 0x00 for 0x7C)
// are rejected as corrupt. Strictness is what makes accepted frames
// re-encode byte-exact (the fuzz invariant).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < len(r.buf); i++ {
		b := r.buf[i]
		if b < 0x80 {
			if i > 0 && b == 0 {
				r.fail(ErrCorrupt)
				return 0
			}
			if i == 9 && b > 1 {
				r.fail(ErrCorrupt)
				return 0
			}
			r.buf = r.buf[i+1:]
			return v | uint64(b)<<(7*i)
		}
		if i == 9 {
			r.fail(ErrCorrupt)
			return 0
		}
		v |= uint64(b&0x7F) << (7 * i)
	}
	r.fail(ErrTruncated)
	return 0
}

// Varint reads a zigzag svarint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a length-prefixed byte slice. The returned slice aliases the
// frame buffer — zero-copy. Callers that retain the data past the frame's
// lifetime must copy it (all current consumers hand payloads to tier
// stores, which copy on Put/Get).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// String reads a length-prefixed string (always allocates; prefer
// StringInto when decoding into a reused struct).
func (r *Reader) String() string {
	return string(r.Bytes())
}

// StringInto reads a length-prefixed string into *s, reusing the existing
// string when the bytes already match (the `if *s != string(b)` comparison
// does not allocate), so repeated decodes into the same struct are
// allocation-free.
func (r *Reader) StringInto(s *string) {
	b := r.Bytes()
	if r.err != nil {
		return
	}
	if *s != string(b) {
		*s = string(b)
	}
}

// Bool reads a strictly-canonical bool byte (0 or 1).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 {
		r.fail(ErrTruncated)
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrCorrupt)
		return false
	}
}

// Time reads a time value (zero flag byte, then svarint UnixNano).
func (r *Reader) Time() time.Time {
	if !r.Bool() {
		return time.Time{}
	}
	ns := r.Varint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Count reads a uvarint element count for a slice, rejecting counts that
// could not possibly fit in the remaining bytes (each element costs at
// least one byte), so corrupt frames can't trigger huge allocations.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)) {
		r.fail(ErrCorrupt)
		return 0
	}
	return int(n)
}
