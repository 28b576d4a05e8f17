package trace

import (
	"fmt"
	"io"
)

// Source is a pull iterator over trace operations — the streaming
// counterpart of Trace. Next returns the next operation of the stream, or
// io.EOF once the stream is exhausted; any other error is terminal and
// positioned (decode and feasibility errors carry the index or line of the
// offending operation). A Source is single-use and not safe for concurrent
// Next calls.
//
// Sources compose into pipelines: a decoder (NewDecoder, NewBinaryDecoder,
// NewTextDecoder) produces the raw stream, ValidateSource checks the §2
// feasibility constraints incrementally, and DesugarSource lowers extended
// operations on the fly. Each stage holds O(ids) state, never O(length), so
// a pipeline processes arbitrarily long traces in bounded memory — the
// property an online detector frontend needs.
type Source interface {
	Next() (Op, error)
}

// A source may also deliver operations a batch at a time, through a method
//
//	NextBatch(buf []Op) (int, error)
//
// that fills buf with the next operations of the stream — at least one
// and at most len(buf) — and returns how many, or returns 0 and the error
// Next would have returned (io.EOF at the end). An error met after some
// operations is held back for the next call, so a consumer sees every
// operation before the error, as it would pulling them one at a time. The
// binary decoder has one, and so have Counter and Limit, which forward it.
type batchSource interface {
	Source
	NextBatch(buf []Op) (int, error)
}

// NextBatch reads the next operations of src into buf (len(buf) >= 1): a
// batch when src delivers batches, otherwise the one operation Next
// returns. It returns how many it read, or 0 and src's error.
func NextBatch(src Source, buf []Op) (int, error) {
	if b, ok := src.(batchSource); ok {
		return b.NextBatch(buf)
	}
	op, err := src.Next()
	if err != nil {
		return 0, err
	}
	buf[0] = op
	return 1, nil
}

// Unread tells src that its consumer stopped with the last k operations of
// the latest batch unconsumed — at an error in the operation before them.
// The stages that account for what passes through them take those k back
// (Counter's N, Limit's budget), so they read exactly as if the consumer
// had pulled one operation at a time; the stream itself is not rewound.
func Unread(src Source, k int) {
	if u, ok := src.(interface{ unread(int) }); ok && k > 0 {
		u.unread(k)
	}
}

// sliceSource adapts a materialized Trace to the Source interface.
type sliceSource struct {
	tr  Trace
	pos int
}

func (s *sliceSource) Next() (Op, error) {
	if s.pos >= len(s.tr) {
		return Op{}, io.EOF
	}
	op := s.tr[s.pos]
	s.pos++
	return op, nil
}

// NewSliceSource returns a Source yielding tr's operations in order.
func NewSliceSource(tr Trace) Source { return &sliceSource{tr: tr} }

// Source returns a single-use Source over the trace.
func (tr Trace) Source() Source { return NewSliceSource(tr) }

// ReadAll materializes a Source into a Trace. It returns the operations
// consumed up to the first error; a clean io.EOF is not an error.
func ReadAll(src Source) (Trace, error) {
	var out Trace
	for {
		op, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, op)
	}
}

// TooLongError is the terminal error of a Limit source: the stream
// exceeded the caller's operation budget. The limit is carried so callers
// (an ingestion service enforcing per-tenant stream quotas) can report it.
type TooLongError struct {
	Limit int
}

func (e *TooLongError) Error() string {
	return fmt.Sprintf("trace: stream exceeds %d operations", e.Limit)
}

// limitSource fails a Source past n operations.
type limitSource struct {
	src  Source
	n    int
	left int
}

func (l *limitSource) Next() (Op, error) {
	op, err := l.src.Next()
	if err != nil {
		return op, err
	}
	if l.left <= 0 {
		return Op{}, &TooLongError{Limit: l.n}
	}
	l.left--
	return op, nil
}

// NextBatch forwards a batch of src's, cut to the budget left.
func (l *limitSource) NextBatch(buf []Op) (int, error) {
	if l.left <= 0 {
		// One more operation decides between the stream's own end or error
		// and the budget's.
		var one [1]Op
		if _, err := NextBatch(l.src, one[:]); err != nil {
			return 0, err
		}
		return 0, &TooLongError{Limit: l.n}
	}
	n, err := NextBatch(l.src, buf[:min(len(buf), l.left)])
	l.left -= n
	return n, err
}

func (l *limitSource) unread(k int) {
	l.left += k
	Unread(l.src, k)
}

// Limit returns a Source that yields src's operations but fails with a
// *TooLongError as soon as the stream runs past n operations. It never
// silently truncates: an over-budget stream is an error — the right
// contract for enforcing upload quotas, where checking a silent prefix
// would misreport the trace's races. n <= 0 means no limit.
func Limit(src Source, n int) Source {
	if n <= 0 {
		return src
	}
	return &limitSource{src: src, n: n, left: n}
}

// Counter is a Source that passes Src's operations through and counts
// them, for a consumer that drives a streaming check and afterwards wants
// the stream's length without having held it.
type Counter struct {
	Src Source
	// N is the number of operations yielded so far (less any a consumer
	// handed back with Unread).
	N int
	// Err is the first error other than io.EOF that Src returned: the
	// stream's own failure, which a caller can then tell apart from an
	// error of the stage that consumed it.
	Err error
}

func (c *Counter) Next() (Op, error) {
	op, err := c.Src.Next()
	switch {
	case err == nil:
		c.N++
	case err != io.EOF && c.Err == nil:
		c.Err = err
	}
	return op, err
}

// NextBatch forwards a batch of Src's (see Source) and counts it.
func (c *Counter) NextBatch(buf []Op) (int, error) {
	n, err := NextBatch(c.Src, buf)
	c.N += n
	if err != nil && err != io.EOF && c.Err == nil {
		c.Err = err
	}
	return n, err
}

func (c *Counter) unread(k int) {
	c.N -= k
	Unread(c.Src, k)
}
