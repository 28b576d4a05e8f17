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
// binary decoder has one.
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

// TooLongError is the error of a check whose stream ran past the caller's
// operation budget (parcheck.Options.MaxOps). The limit is carried so
// callers (an ingestion service enforcing per-tenant stream quotas) can
// report it.
type TooLongError struct {
	Limit int
}

func (e *TooLongError) Error() string {
	return fmt.Sprintf("trace: stream exceeds %d operations", e.Limit)
}
