package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/epoch"
)

// The binary trace format is a compact, streamable alternative to the text
// codec, built for long traces (a 1M-op trace is ~4 MB instead of ~10 MB of
// text, and decodes several times faster; see BenchmarkBinaryDecode):
//
//	header:  the 5 magic bytes "VFTb" + version (\x01 or \x02)
//	per op:  uvarint length n, then an n-byte record:
//	           byte    kind   (the Kind constant)
//	           uvarint thread (the acting thread id)
//	           uvarint arg    (X, M or U, whichever the kind uses)
//
// All varints are unsigned LEB128 as produced by encoding/binary. The
// length prefix makes every record self-delimiting, so a decoder can skip
// or resynchronize on records it does not understand and future versions
// can append fields without breaking old readers. The format has no
// trailer: a stream ends at a record boundary (anything else is
// io.ErrUnexpectedEOF), which suits pipes and append-only capture files.
//
// Version 2 extends version 1 with the Go synchronization kinds (channel
// send/recv/close, atomic load/store/RMW, once-do); the record layout is
// unchanged. The decoder accepts both versions — a v1 stream decodes to
// the identical Trace it always did, and a v1 stream containing a v2 kind
// byte is rejected as an unknown kind, exactly as before. The encoder
// writes v2 by default; SetVersion(1) pins the old header for consumers
// that predate v2 (encoding a v2 kind then fails instead of smuggling it
// past an old reader). A version this build does not know yields a typed
// *UnsupportedVersionError, distinguishing "upgrade the reader" from
// corruption.

// binaryMagicPrefix opens every binary trace stream, followed by one
// version byte. It is chosen to be unambiguous against both the text
// codec (no text op starts with 'V') and gzip (0x1f 0x8b).
const binaryMagicPrefix = "VFTb"

const (
	// BinaryVersion1 is the original six+three-kind wire format.
	BinaryVersion1 = 1
	// BinaryVersion2 adds the Go synchronization kinds.
	BinaryVersion2 = 2
	// MaxBinaryVersion is the newest version this build reads and writes.
	MaxBinaryVersion = BinaryVersion2
)

// maxKindForVersion bounds the kind byte each format version may carry.
func maxKindForVersion(v int) Kind {
	if v <= BinaryVersion1 {
		return Barrier
	}
	return OnceDo
}

// UnsupportedVersionError reports a binary trace whose header names a
// format version outside the range this build understands, carrying the
// version byte actually found so the message names both sides of the
// mismatch. A too-new version is the "upgrade the reader" error, as
// opposed to the corruption errors: the stream is a well-formed trace
// from a newer writer.
type UnsupportedVersionError struct {
	Got int // version the stream declares (the header's version byte)
	Min int // oldest version this build supports
	Max int // newest version this build supports
}

func (e *UnsupportedVersionError) Error() string {
	min := e.Min
	if min == 0 {
		min = BinaryVersion1
	}
	msg := fmt.Sprintf("trace: binary format version %d not supported (supported %d..%d)", e.Got, min, e.Max)
	if e.Got > e.Max {
		msg += ": produced by a newer writer; upgrade this reader"
	}
	return msg
}

// IsBinary reports whether head (the first bytes of a stream; 4 suffice)
// begins a binary trace, any version. Tools use it to tell trace inputs
// from program sources without trusting file extensions.
func IsBinary(head []byte) bool {
	return len(head) >= 4 && string(head[:4]) == binaryMagicPrefix
}

// maxBinaryRecord bounds a record's declared length: kind byte plus two
// maximal 32-bit varints. Anything longer is corruption, and rejecting it
// up front keeps a hostile length prefix from driving a huge allocation.
const maxBinaryRecord = 1 + 2*binary.MaxVarintLen32

// EncodeBinary writes tr in the binary format (the current version).
func EncodeBinary(w io.Writer, tr Trace) error {
	return EncodeBinaryVersion(w, tr, MaxBinaryVersion)
}

// EncodeBinaryVersion writes tr in the binary format pinned to the given
// version; encoding a kind the version cannot carry fails.
func EncodeBinaryVersion(w io.Writer, tr Trace, version int) error {
	enc := NewBinaryEncoder(w)
	if err := enc.SetVersion(version); err != nil {
		return err
	}
	for _, op := range tr {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// BinaryEncoder writes one operation at a time in the binary format — the
// streaming producer half, for capture frontends that never hold a whole
// trace. The header is emitted lazily before the first record (or by
// Flush, so even an empty stream is well-formed).
type BinaryEncoder struct {
	w       *bufio.Writer
	version int
	opened  bool
	buf     [binary.MaxVarintLen64 + maxBinaryRecord]byte
}

// NewBinaryEncoder returns an encoder writing to w in the current format
// version (SetVersion pins an older one). Call Flush when done.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{w: bufio.NewWriter(w), version: MaxBinaryVersion}
}

// SetVersion pins the format version the encoder writes. It must be
// called before the first Encode; versions outside [1, MaxBinaryVersion]
// are rejected.
func (e *BinaryEncoder) SetVersion(v int) error {
	if e.opened {
		return fmt.Errorf("trace: encode: SetVersion(%d) after the header was written", v)
	}
	if v < BinaryVersion1 || v > MaxBinaryVersion {
		return &UnsupportedVersionError{Got: v, Min: BinaryVersion1, Max: MaxBinaryVersion}
	}
	e.version = v
	return nil
}

func (e *BinaryEncoder) open() error {
	if e.opened {
		return nil
	}
	e.opened = true
	if _, err := e.w.WriteString(binaryMagicPrefix); err != nil {
		return err
	}
	return e.w.WriteByte(byte(e.version))
}

// Encode appends one operation to the stream.
func (e *BinaryEncoder) Encode(op Op) error {
	if err := e.open(); err != nil {
		return err
	}
	if op.Kind > maxKindForVersion(e.version) {
		return fmt.Errorf("trace: encode: kind %v needs format version %d (encoder pinned to %d)",
			op.Kind, BinaryVersion2, e.version)
	}
	var arg uint64
	switch op.Kind {
	case Read, Write, VolatileRead, VolatileWrite, AtomicLoad, AtomicStore, AtomicRMW:
		arg = uint64(uint32(op.X))
	case Acquire, Release, Barrier, ChanSend, ChanRecv, ChanClose, OnceDo:
		arg = uint64(uint32(op.M))
	case Fork, Join:
		arg = uint64(uint32(op.U))
	default:
		return fmt.Errorf("trace: encode: unknown kind %v", op.Kind)
	}
	// Assemble the record after a length-prefix placeholder, then write
	// the varint length and the record in one buffered call each.
	rec := e.buf[binary.MaxVarintLen64:]
	rec[0] = byte(op.Kind)
	n := 1
	n += binary.PutUvarint(rec[n:], uint64(uint32(op.T)))
	n += binary.PutUvarint(rec[n:], arg)
	ln := binary.PutUvarint(e.buf[:], uint64(n))
	if _, err := e.w.Write(e.buf[:ln]); err != nil {
		return err
	}
	_, err := e.w.Write(rec[:n])
	return err
}

// Flush writes any buffered data (and the header, if nothing was encoded).
func (e *BinaryEncoder) Flush() error {
	if err := e.open(); err != nil {
		return err
	}
	return e.w.Flush()
}

// binaryWindow is the most one record can occupy on the wire: a maximal
// length varint plus a maximal record. With that many bytes in view the
// decoder reads a record in place, whatever the record turns out to be.
const binaryWindow = binary.MaxVarintLen64 + maxBinaryRecord

// errVarintOverflow is encoding/binary's own overflow error, which a
// length prefix that does not terminate has always been reported with.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// BinaryDecoder reads the binary format as a Source, accepting every
// version up to MaxBinaryVersion.
type BinaryDecoder struct {
	r       *bufio.Reader
	n       int // records decoded, for error positions
	version int
	opened  bool
	err     error // sticky

	// Records are decoded in place out of r's buffer: win is the part of
	// it not yet decoded, used the bytes decoded since the last refill.
	// A win shorter than binaryWindow is all the input there is, and tail
	// the read error that ended it.
	win  []byte
	used int
	tail error
}

// NewBinaryDecoder returns a Source decoding the binary format from r.
// The magic header is checked on the first Next call; a header declaring
// a version newer than MaxBinaryVersion fails with a typed
// *UnsupportedVersionError. The decoder wants binaryWindow bytes in view
// before it decodes, so on a live pipe an operation is delivered once that
// many bytes follow its first one, or the stream ends.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < binaryWindow {
		br = bufio.NewReader(r)
	}
	return &BinaryDecoder{r: br}
}

// Version returns the format version the stream's header declared, or 0
// before the first Next call.
func (d *BinaryDecoder) Version() int { return d.version }

func (d *BinaryDecoder) fail(format string, args ...any) (Op, error) {
	d.err = fmt.Errorf("trace: binary op #%d: %s", d.n, fmt.Sprintf(format, args...))
	return Op{}, d.err
}

// view returns the undecoded input, at least binaryWindow bytes of it
// unless the input ends sooner. When too little is left in view it hands
// the decoded bytes back to r and reads on. The read error that ends the
// input is kept, not asked for again: bufio reports an error once, and the
// records in front of it are still to be decoded.
func (d *BinaryDecoder) view() []byte {
	if len(d.win) < binaryWindow {
		d.r.Discard(d.used) // cannot fail: the bytes were peeked
		d.used = 0
		if d.tail == nil {
			_, d.tail = d.r.Peek(binaryWindow)
		}
		d.win, _ = d.r.Peek(d.r.Buffered())
	}
	return d.win
}

// consume marks the first n bytes in view as decoded.
func (d *BinaryDecoder) consume(n int) {
	d.win = d.win[n:]
	d.used += n
}

// truncated is the error for input that stops inside a header or record:
// a clean end of input there is io.ErrUnexpectedEOF, any other read error
// is itself.
func (d *BinaryDecoder) truncated() error {
	if d.tail == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.tail
}

// Next returns the next decoded operation, io.EOF at a clean end of
// stream, or a positioned decode error (sticky thereafter).
func (d *BinaryDecoder) Next() (Op, error) {
	if d.err != nil {
		return Op{}, d.err
	}
	win := d.view()
	if !d.opened {
		const hdrLen = len(binaryMagicPrefix) + 1
		if len(win) == 0 {
			return d.fail("reading header: %v", d.tail)
		}
		if len(win) < hdrLen {
			return d.fail("reading header: %v", d.truncated())
		}
		hdr := win[:hdrLen]
		if string(hdr[:len(binaryMagicPrefix)]) != binaryMagicPrefix {
			return d.fail("bad magic %q (not a binary trace)", hdr)
		}
		v := int(hdr[len(binaryMagicPrefix)])
		if v < BinaryVersion1 || v > MaxBinaryVersion {
			d.err = &UnsupportedVersionError{Got: v, Min: BinaryVersion1, Max: MaxBinaryVersion}
			return Op{}, d.err
		}
		d.version = v
		d.opened = true
		d.consume(hdrLen)
		win = d.view()
	}
	ln, lw := binary.Uvarint(win)
	switch {
	case lw > 0:
	case lw < 0 || len(win) >= binary.MaxVarintLen64:
		return d.fail("reading record length: %v", errVarintOverflow)
	case len(win) > 0:
		return d.fail("reading record length: %v", d.truncated())
	case d.tail == io.EOF:
		d.err = io.EOF // clean end: the stream stops at a record boundary
		return Op{}, io.EOF
	default:
		return d.fail("reading record length: %v", d.tail)
	}
	if ln == 0 || ln > maxBinaryRecord {
		return d.fail("record length %d out of range [1,%d]", ln, maxBinaryRecord)
	}
	if uint64(len(win)-lw) < ln {
		return d.fail("reading %d-byte record: %v", ln, d.truncated())
	}
	rec := win[lw : lw+int(ln)]
	kind := Kind(rec[0])
	if kind > maxKindForVersion(d.version) {
		return d.fail("unknown kind %d", rec[0])
	}
	t, w := uvarint32(rec[1:])
	if w == 0 {
		return d.fail("bad thread varint")
	}
	arg, w2 := uvarint32(rec[1+w:])
	if w2 == 0 {
		return d.fail("bad operand varint")
	}
	if 1+w+w2 != int(ln) {
		return d.fail("record has %d trailing bytes", int(ln)-1-w-w2)
	}
	d.consume(lw + len(rec))
	d.n++
	// The operand lands in the one field the kind uses. Selected as scalars
	// and assembled once: patching a field of an Op already in memory makes
	// the return read a word the stores only partly wrote.
	var x, m, u int32
	switch kind {
	case Read, Write, VolatileRead, VolatileWrite, AtomicLoad, AtomicStore, AtomicRMW:
		x = arg
	case Acquire, Release, Barrier, ChanSend, ChanRecv, ChanClose, OnceDo:
		m = arg
	case Fork, Join:
		u = arg
	}
	return Op{Kind: kind, T: epoch.Tid(t), X: Var(x), M: Lock(m), U: epoch.Tid(u)}, nil
}

// uvarint32 decodes a uvarint that must fit a non-negative int32 — the id
// space of every Op field — and returns it with its width, 0 if there is
// no such value at the head of b. Ids below 128 are one byte, and most ids
// are: that case skips the general loop.
func uvarint32(b []byte) (int32, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return int32(b[0]), 1
	}
	v, w := binary.Uvarint(b)
	if w <= 0 || v > 1<<31-1 {
		return 0, 0
	}
	return int32(v), w
}
