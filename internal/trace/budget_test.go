package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/parcheck"
	"repro/internal/trace"
)

// The operation budget is parcheck.CheckSource's (Options.MaxOps); its
// error, *trace.TooLongError, is this package's. These tests pin that
// contract from the trace side, over the sources this package makes.

// TestLimit: within budget the check is transparent; past it the stream
// fails with a typed *TooLongError (it never silently truncates); a budget
// of 0 is none. The slice source yields one op at a time.
func TestLimit(t *testing.T) {
	tr := trace.Trace{trace.Wr(0, 0), trace.Rd(0, 1), trace.Wr(0, 2)}
	check := func(limit int) (int, error) {
		_, n, err := parcheck.CheckSource(tr.Source(), nil, parcheck.Options{MaxOps: limit})
		return n, err
	}
	if n, err := check(3); err != nil || n != 3 {
		t.Fatalf("budget 3 over 3 ops: %d ops, %v", n, err)
	}
	n, err := check(2)
	var tooLong *trace.TooLongError
	if !errors.As(err, &tooLong) || tooLong.Limit != 2 || n != 0 {
		t.Fatalf("budget 2 over 3 ops: %d ops, err %v; want *TooLongError{2}", n, err)
	}
	if n, err := check(0); err != nil || n != 3 {
		t.Fatalf("budget 0 must disable the budget: %d ops, %v", n, err)
	}
}

// TestLimitCounterBatches: over the binary decoder, which hands the check
// whole batches, the budget and the op count read as pulling one op at a
// time would: the whole budget, the budget overrun, and a decode error
// just past the budget, which wins over the overrun. The decoder's error
// is returned as itself, so a caller can tell it by identity (Err) from a
// check error, even one met in a batch the decoder has already read past.
func TestLimitCounterBatches(t *testing.T) {
	var bin bytes.Buffer
	tr := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 300), trace.Rd(1, 2), trace.Wr(1, 3), trace.JoinOp(0, 1)}
	if err := trace.EncodeBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	full := bin.Bytes()
	cut := full[:len(full)-1] // the fifth record is truncated
	const decodeErr = "trace: binary op #4: reading 3-byte record: unexpected EOF"
	for _, tc := range []struct {
		name  string
		data  []byte
		limit int
		ops   int
		err   string
	}{
		{"exactly n", full, 5, 5, "<nil>"},
		{"n+1", full, 4, 0, "trace: stream exceeds 4 operations"},
		{"decode error at n+1", cut, 4, 0, decodeErr},
		{"decode error inside", cut, 9, 0, decodeErr},
	} {
		dec := trace.NewBinaryDecoder(bytes.NewReader(tc.data))
		_, n, err := parcheck.CheckSource(dec, nil, parcheck.Options{MaxOps: tc.limit})
		if n != tc.ops || fmt.Sprint(err) != tc.err {
			t.Errorf("%s: %d ops, %v; want %d ops, %s", tc.name, n, err, tc.ops, tc.err)
		}
		if own := err != nil && err == dec.Err(); own != (tc.err == decodeErr) {
			t.Errorf("%s: error is the decoder's own: %v", tc.name, own)
		}
	}

	// An infeasible second op ends the check inside the decoder's first
	// batch: the decode error behind it is read but is not the check's.
	bad := trace.Trace{tr[0], trace.Rel(0, 9), tr[2], tr[3], tr[4]}
	bin.Reset()
	if err := trace.EncodeBinary(&bin, bad); err != nil {
		t.Fatal(err)
	}
	dec := trace.NewBinaryDecoder(bytes.NewReader(bin.Bytes()[:bin.Len()-1]))
	_, n, err := parcheck.CheckSource(dec, nil, parcheck.Options{})
	var ie *trace.InfeasibleError
	if !errors.As(err, &ie) || ie.Index != 1 || n != 0 || err == dec.Err() {
		t.Errorf("infeasible op #1 before a decode error: %d ops, %v (decoder: %v)", n, err, dec.Err())
	}
}
