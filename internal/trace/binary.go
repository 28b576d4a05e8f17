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
// writes v2 only. A version this build does not know yields a typed
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
	// MaxBinaryVersion is the newest version this build reads, and the
	// one it writes.
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
	enc := NewBinaryEncoder(w)
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
	w      *bufio.Writer
	opened bool
	buf    [binary.MaxVarintLen64 + maxBinaryRecord]byte
}

// NewBinaryEncoder returns an encoder writing to w in the current format
// version. Call Flush when done.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{w: bufio.NewWriter(w)}
}

func (e *BinaryEncoder) open() error {
	if e.opened {
		return nil
	}
	e.opened = true
	if _, err := e.w.WriteString(binaryMagicPrefix); err != nil {
		return err
	}
	return e.w.WriteByte(MaxBinaryVersion)
}

// Encode appends one operation to the stream.
func (e *BinaryEncoder) Encode(op Op) error {
	if err := e.open(); err != nil {
		return err
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
// version up to MaxBinaryVersion. Besides Next it delivers batches
// (NextBatch; see Source), which is how the offline check path reads it.
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

// Decoded returns how many records the decoder has delivered.
func (d *BinaryDecoder) Decoded() int { return d.n }

// Err returns the error that ended the stream — io.EOF at a clean end — or
// nil while it has not ended. A consumer that stops at an error can tell
// by comparing the two whether it is the decoder's own.
func (d *BinaryDecoder) Err() error { return d.err }

// failf makes the decode error of the record after the n decoded so far
// in this batch, and keeps it (sticky).
func (d *BinaryDecoder) failf(n int, format string, args ...any) error {
	d.err = fmt.Errorf("trace: binary op #%d: %s", d.n+n, fmt.Sprintf(format, args...))
	return d.err
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

// open reads and checks the header.
func (d *BinaryDecoder) open() error {
	const hdrLen = len(binaryMagicPrefix) + 1
	win := d.view()
	if len(win) == 0 {
		return d.failf(0, "reading header: %v", d.tail)
	}
	if len(win) < hdrLen {
		return d.failf(0, "reading header: %v", d.truncated())
	}
	hdr := win[:hdrLen]
	if string(hdr[:len(binaryMagicPrefix)]) != binaryMagicPrefix {
		return d.failf(0, "bad magic %q (not a binary trace)", hdr)
	}
	v := int(hdr[len(binaryMagicPrefix)])
	if v < BinaryVersion1 || v > MaxBinaryVersion {
		d.err = &UnsupportedVersionError{Got: v, Min: BinaryVersion1, Max: MaxBinaryVersion}
		return d.err
	}
	d.version = v
	d.opened = true
	d.consume(hdrLen)
	return nil
}

// Next returns the next decoded operation, io.EOF at a clean end of
// stream, or a positioned decode error (sticky thereafter). It is a batch
// of one.
func (d *BinaryDecoder) Next() (Op, error) {
	var op [1]Op
	if _, err := d.NextBatch(op[:]); err != nil {
		return Op{}, err
	}
	return op[0], nil
}

// NextBatch decodes up to len(buf) records into buf; see Source for the
// contract. It reads the records in place out of the peeked window, and
// refills the window only while it holds no decoded record: on a live pipe
// a refill can wait for input, and what is decoded is delivered first.
func (d *BinaryDecoder) NextBatch(buf []Op) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if !d.opened {
		if err := d.open(); err != nil {
			return 0, err
		}
	}
	maxKind := maxKindForVersion(d.version)
	w := d.view()
	p := 0 // w[p:] is undecoded
	n := 0
	for n < len(buf) {
		// The records nearly every stream is made of — a one-byte length,
		// ids below 2^14, a whole window in view — decode in this loop, which
		// makes no call; anything else, and every error, takes the general
		// path below it, one record at a time.
		for n < len(buf) && len(w)-p >= binaryWindow {
			end := p + 1 + int(w[p])
			t, at, tok := varint14At(w, p+2, end)
			arg, q, aok := varint14At(w, at, end)
			kind := Kind(w[p+1])
			if !tok || !aok || q != end || kind > maxKind {
				break
			}
			put(&buf[n], kind, t, arg)
			n, p = n+1, end
		}
		if n == len(buf) {
			break
		}
		if len(w)-p < binaryWindow {
			d.consume(p)
			w, p = d.win, 0
			if n > 0 && d.tail == nil {
				break
			}
			w = d.view()
		}
		// The length prefix; a record is at most maxBinaryRecord bytes, so a
		// well-formed one is a single byte.
		var ln int
		if p < len(w) && w[p] < 0x80 {
			ln = int(w[p])
			p++
		} else {
			v, lw := binary.Uvarint(w[p:])
			switch {
			case lw > 0:
			case lw < 0 || len(w)-p >= binary.MaxVarintLen64:
				return d.stop(n, p, d.failf(n, "reading record length: %v", errVarintOverflow))
			case len(w) > p:
				return d.stop(n, p, d.failf(n, "reading record length: %v", d.truncated()))
			case d.tail == io.EOF:
				d.err = io.EOF // clean end: the stream stops at a record boundary
				return d.stop(n, p, io.EOF)
			default:
				return d.stop(n, p, d.failf(n, "reading record length: %v", d.tail))
			}
			if v == 0 || v > maxBinaryRecord {
				return d.stop(n, p, d.failf(n, "record length %d out of range [1,%d]", v, maxBinaryRecord))
			}
			ln = int(v)
			p += lw
		}
		if ln == 0 || ln > maxBinaryRecord {
			return d.stop(n, p, d.failf(n, "record length %d out of range [1,%d]", ln, maxBinaryRecord))
		}
		if len(w)-p < ln {
			return d.stop(n, p, d.failf(n, "reading %d-byte record: %v", ln, d.truncated()))
		}
		end := p + ln
		kind := Kind(w[p])
		if kind > maxKind {
			return d.stop(n, p, d.failf(n, "unknown kind %d", w[p]))
		}
		t, at, ok := varint14At(w, p+1, end)
		if !ok {
			if t, at = varint32At(w, p+1, end); at < 0 {
				return d.stop(n, p, d.failf(n, "bad thread varint"))
			}
		}
		arg, q, ok := varint14At(w, at, end)
		if !ok {
			if arg, q = varint32At(w, at, end); q < 0 {
				return d.stop(n, p, d.failf(n, "bad operand varint"))
			}
		}
		if q != end {
			return d.stop(n, p, d.failf(n, "record has %d trailing bytes", end-q))
		}
		put(&buf[n], kind, t, arg)
		n, p = n+1, end
	}
	d.consume(p)
	d.n += n
	return n, nil
}

// stop ends a batch of n records at the error that ended the stream, which
// is sticky by now: p bytes in view were decoded, the error is returned at
// once only if the batch is empty, and otherwise held for the next call.
func (d *BinaryDecoder) stop(n, p int, err error) (int, error) {
	d.consume(p)
	d.n += n
	if n > 0 {
		return n, nil
	}
	return 0, err
}

// put stores a decoded record into op, the operand in the one field the
// kind uses. The fields are stored one by one: an Op assembled first would
// be copied out with wide loads of narrow stores still in flight.
func put(op *Op, kind Kind, t, arg int32) {
	f := operandFields[kind&15]
	op.Kind, op.T = kind, epoch.Tid(t)
	op.X, op.M, op.U = Var(arg&f.x), Lock(arg&f.m), epoch.Tid(arg&f.u)
}

// operandFields says, per kind, which one of an Op's X, M and U the
// record's operand lands in: that field's mask is all ones, the others'
// zero.
var operandFields = func() (fs [16]struct{ x, m, u int32 }) {
	for k := range fs {
		switch Kind(k) {
		case Read, Write, VolatileRead, VolatileWrite, AtomicLoad, AtomicStore, AtomicRMW:
			fs[k].x = -1
		case Acquire, Release, Barrier, ChanSend, ChanRecv, ChanClose, OnceDo:
			fs[k].m = -1
		case Fork, Join:
			fs[k].u = -1
		}
	}
	return fs
}()

// varint14At decodes the uvarint at b[q:] when it is one or two bytes long
// — an id below 2^14, as most ids are — and ends by end, returning it with
// the position after it; otherwise it reports false, and the caller
// decodes from q the long way. The width is computed, not branched on:
// records alternate between one-byte lock and two-byte variable operands
// in no pattern a branch predictor learns.
func varint14At(b []byte, q, end int) (int32, int, bool) {
	if q+1 >= len(b) {
		return 0, q, false
	}
	b0, b1 := b[q], b[q+1]
	more := int32(b0 >> 7) // 1 if the varint continues into b1
	v := int32(b0&0x7f) | int32(b1)<<7&-more
	next := q + 1 + int(more)
	return v, next, next <= end && b1&byte(more<<7) == 0
}

// varint32At decodes the uvarint at the head of b[q:end], which must fit
// a non-negative int32 — the id space of every Op field — and returns it
// with the position after it, or a negative position if there is no such
// value.
func varint32At(b []byte, q, end int) (int32, int) {
	v, w := binary.Uvarint(b[q:end])
	if w <= 0 || v > 1<<31-1 {
		return 0, -1
	}
	return int32(v), q + w
}
