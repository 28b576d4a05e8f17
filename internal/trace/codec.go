package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/epoch"
)

// The text format is one operation per line:
//
//	rd <tid> <var>        e.g.  rd 0 3
//	wr <tid> <var>
//	acq <tid> <lock>
//	rel <tid> <lock>
//	fork <tid> <tid>
//	join <tid> <tid>
//	vrd <tid> <var>
//	vwr <tid> <var>
//	barrier <tid> <barrier>
//	send <tid> <chan>
//	recv <tid> <chan>
//	close <tid> <chan>
//	aload <tid> <atomic>
//	astore <tid> <atomic>
//	armw <tid> <atomic>
//	once <tid> <once>
//
// Blank lines and lines starting with '#' are ignored. Operand prefixes
// 'x', 'm', 'b', 't', 'c', 'a' and 'o' are accepted and stripped, so the
// paper-style "rd t1 x3" (and "send t1 c2") also parses.

// Encode writes tr in the text format.
func Encode(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range tr {
		var line string
		switch op.Kind {
		case Read, Write, VolatileRead, VolatileWrite, AtomicLoad, AtomicStore, AtomicRMW:
			line = fmt.Sprintf("%s %d %d\n", op.Kind, op.T, op.X)
		case Acquire, Release, Barrier, ChanSend, ChanRecv, ChanClose, OnceDo:
			line = fmt.Sprintf("%s %d %d\n", op.Kind, op.T, op.M)
		case Fork, Join:
			line = fmt.Sprintf("%s %d %d\n", op.Kind, op.T, op.U)
		default:
			return fmt.Errorf("trace: encode: unknown kind %v", op.Kind)
		}
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TextDecoder reads the text format as a Source, one operation per Next
// call, holding only the current line in memory. Every error — syntax and
// I/O alike — carries the 1-based line number of the offending input line,
// so a bad op deep inside a multi-gigabyte trace is findable.
type TextDecoder struct {
	sc   *bufio.Scanner
	line int
	err  error // sticky
}

// NewTextDecoder returns a Source decoding the text format from r. It
// validates syntax only; compose with ValidateSource for feasibility.
func NewTextDecoder(r io.Reader) *TextDecoder {
	return &TextDecoder{sc: bufio.NewScanner(r)}
}

func (d *TextDecoder) fail(format string, args ...any) (Op, error) {
	d.err = fmt.Errorf("trace: line %d: %s", d.line, fmt.Sprintf(format, args...))
	return Op{}, d.err
}

// Next returns the next decoded operation, io.EOF at end of input, or a
// line-positioned decode error (sticky thereafter).
func (d *TextDecoder) Next() (Op, error) {
	if d.err != nil {
		return Op{}, d.err
	}
	var fields [3][]byte
	for d.sc.Scan() {
		d.line++
		n := splitFields(d.sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		if n != 3 {
			return d.fail("want 3 fields, got %d", n)
		}
		t, err := parseOperand(fields[1])
		if err != nil {
			return d.fail("thread: %v", err)
		}
		arg, err := parseOperand(fields[2])
		if err != nil {
			return d.fail("operand: %v", err)
		}
		tid := epoch.Tid(t)
		switch string(fields[0]) {
		case "rd":
			return Rd(tid, Var(arg)), nil
		case "wr":
			return Wr(tid, Var(arg)), nil
		case "acq":
			return Acq(tid, Lock(arg)), nil
		case "rel":
			return Rel(tid, Lock(arg)), nil
		case "fork":
			return ForkOp(tid, epoch.Tid(arg)), nil
		case "join":
			return JoinOp(tid, epoch.Tid(arg)), nil
		case "vrd":
			return VRd(tid, Var(arg)), nil
		case "vwr":
			return VWr(tid, Var(arg)), nil
		case "barrier":
			return BarrierOp(tid, Lock(arg)), nil
		case "send":
			return SendOp(tid, Lock(arg)), nil
		case "recv":
			return RecvOp(tid, Lock(arg)), nil
		case "close":
			return CloseOp(tid, Lock(arg)), nil
		case "aload":
			return ALoad(tid, Var(arg)), nil
		case "astore":
			return AStore(tid, Var(arg)), nil
		case "armw":
			return ARMW(tid, Var(arg)), nil
		case "once":
			return OnceOp(tid, Lock(arg)), nil
		default:
			return d.fail("unknown operation %q", fields[0])
		}
	}
	if err := d.sc.Err(); err != nil {
		// The scanner failed producing the line after the last one
		// returned (e.g. a line longer than its buffer): position the
		// error there rather than dropping it, which used to make
		// oversized-line failures in big traces unlocatable.
		d.line++
		return d.fail("%v", err)
	}
	d.err = io.EOF
	return Op{}, io.EOF
}

// splitFields splits line as strings.Fields does — in place if it is ASCII,
// by strings.Fields itself if not — keeps the first three fields in f and
// returns how many there are.
func splitFields(line []byte, f *[3][]byte) int {
	n := 0
	for i := 0; i < len(line); {
		if line[i] >= utf8.RuneSelf {
			fields := strings.Fields(string(line))
			for k := range min(len(fields), len(f)) {
				f[k] = []byte(fields[k])
			}
			return len(fields)
		}
		if unicode.IsSpace(rune(line[i])) {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] < utf8.RuneSelf && !unicode.IsSpace(rune(line[j])) {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n, i = n+1, j
	}
	return n
}

// Decode parses the text format into a materialized Trace. It validates
// syntax only; run Validate for feasibility. Errors carry the 1-based line
// number of the offending line.
func Decode(r io.Reader) (Trace, error) {
	tr, err := ReadAll(NewTextDecoder(r))
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// parseOperand parses "3", "x3", "m3", "b3", "t3", "c3", "a3" or "o3" as 3.
// Every Op field is an int32, so an operand beyond math.MaxInt32 is an
// error, not a wrapped id. Decimal digits are read in place; anything else
// goes to parseID, so the errors are strconv's.
func parseOperand(b []byte) (int32, error) {
	if len(b) > 1 && strings.IndexByte("xmbtcao", b[0]) >= 0 {
		b = b[1:]
	}
	n := int64(0)
	for _, c := range b {
		if c < '0' || c > '9' || n > math.MaxInt32 {
			return parseID(string(b), "operand")
		}
		n = n*10 + int64(c-'0')
	}
	if len(b) == 0 || n > math.MaxInt32 {
		return parseID(string(b), "operand")
	}
	return int32(n), nil
}

// parseID parses a decimal id in [0, math.MaxInt32]; what labels the
// errors.
func parseID(s, what string) (int32, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative %s %d", what, n)
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("%s %d exceeds %d", what, n, math.MaxInt32)
	}
	return int32(n), nil
}

// NewDecoder returns a Source for whichever encoding r carries, sniffing
// the stream head instead of trusting file extensions: gzip streams
// (magic 0x1f 0x8b) are transparently decompressed — repeatedly, so
// double-compressed captures still decode — and then the binary format is
// recognized by its "VFTb" magic, with anything else read as the text
// format. The returned Source decodes incrementally; it never materializes
// the trace.
func NewDecoder(r io.Reader) (Source, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	for {
		head, err := br.Peek(2)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: sniffing input: %v", err)
		}
		if len(head) < 2 || head[0] != 0x1f || head[1] != 0x8b {
			break
		}
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip input: %v", err)
		}
		br = bufio.NewReader(zr)
	}
	head, err := br.Peek(len(binaryMagicPrefix) + 1)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniffing input: %v", err)
	}
	if IsBinary(head) {
		// Any version routes to the binary decoder; an unsupported
		// version then fails with a typed *UnsupportedVersionError
		// instead of being misread as text.
		return NewBinaryDecoder(br), nil
	}
	return NewTextDecoder(br), nil
}
