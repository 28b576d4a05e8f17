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

// headSource truncates a Source after n operations.
type headSource struct {
	src  Source
	left int
}

func (h *headSource) Next() (Op, error) {
	if h.left <= 0 {
		return Op{}, io.EOF
	}
	op, err := h.src.Next()
	if err == nil {
		h.left--
	}
	return op, err
}

// Head returns a Source yielding at most the first n operations of src.
// The underlying source is not drained past n, so a bounded prefix of an
// unbounded stream stays bounded.
func Head(src Source, n int) Source { return &headSource{src: src, left: n} }

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

// Limit returns a Source that yields src's operations but fails with a
// *TooLongError as soon as the stream runs past n operations. Unlike Head,
// which silently truncates, Limit makes an over-budget stream an error —
// the right contract for enforcing upload quotas, where checking a silent
// prefix would misreport the trace's races. n <= 0 means no limit.
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
	// N is the number of operations yielded so far.
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
