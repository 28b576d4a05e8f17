package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestSliceSourceReadAllHead(t *testing.T) {
	tr := Trace{Wr(0, 0), Rd(0, 1), Wr(0, 2)}
	back, err := ReadAll(tr.Source())
	if err != nil || !reflect.DeepEqual(tr, back) {
		t.Fatalf("ReadAll: %v, %v", back, err)
	}
	head, err := ReadAll(Head(tr.Source(), 2))
	if err != nil || !reflect.DeepEqual(tr[:2], head) {
		t.Fatalf("Head(2): %v, %v", head, err)
	}
	none, err := ReadAll(Head(tr.Source(), 0))
	if err != nil || len(none) != 0 {
		t.Fatalf("Head(0): %v, %v", none, err)
	}
}

// TestLimit: within budget Limit is transparent; past it the stream fails
// with a typed *TooLongError (it never silently truncates like Head).
func TestLimit(t *testing.T) {
	tr := Trace{Wr(0, 0), Rd(0, 1), Wr(0, 2)}
	back, err := ReadAll(Limit(tr.Source(), 3))
	if err != nil || !reflect.DeepEqual(tr, back) {
		t.Fatalf("Limit(3) over 3 ops: %v, %v", back, err)
	}
	got, err := ReadAll(Limit(tr.Source(), 2))
	var tooLong *TooLongError
	if !errors.As(err, &tooLong) || tooLong.Limit != 2 {
		t.Fatalf("Limit(2) over 3 ops: err %v, want *TooLongError{2}", err)
	}
	if len(got) != 2 {
		t.Fatalf("Limit(2) yielded %d ops before failing, want 2", len(got))
	}
	if all, err := ReadAll(Limit(tr.Source(), 0)); err != nil || len(all) != 3 {
		t.Fatalf("Limit(0) must disable the limit: %v, %v", all, err)
	}
}

// TestCounter: every yielded op is counted, io.EOF is not a failure, and
// the first real error of the wrapped source is kept (repeat calls after
// it do not overwrite it).
func TestCounter(t *testing.T) {
	tr := Trace{Wr(0, 0), Rd(0, 1), Wr(0, 2)}
	c := &Counter{Src: tr.Source()}
	back, err := ReadAll(c)
	if err != nil || !reflect.DeepEqual(tr, back) || c.N != 3 || c.Err != nil {
		t.Fatalf("clean stream: %v, %v, N=%d Err=%v", back, err, c.N, c.Err)
	}
	c = &Counter{Src: Limit(tr.Source(), 2)}
	_, err = ReadAll(c)
	var tooLong *TooLongError
	if !errors.As(c.Err, &tooLong) || c.Err != err || c.N != 2 {
		t.Fatalf("failing stream: N=%d Err=%v, ReadAll err %v", c.N, c.Err, err)
	}
	first := c.Err
	if _, err := c.Next(); err == nil || c.Err != first || c.N != 2 {
		t.Fatalf("after the failure: err %v, N=%d, Err changed: %v", err, c.N, c.Err != first)
	}
}

// TestLimitCounterBatches: Limit and Counter forward batches, and through
// them a batch reader meets what Next meets one op at a time — the whole
// budget, the budget overrun, and a decode error just past the budget,
// which wins over the overrun as it does for Next — while Counter keeps
// N and Err as Next would have left them.
func TestLimitCounterBatches(t *testing.T) {
	var bin bytes.Buffer
	if err := EncodeBinary(&bin, Trace{ForkOp(0, 1), Wr(0, 300), Rd(1, 2), Wr(1, 3), JoinOp(0, 1)}); err != nil {
		t.Fatal(err)
	}
	full := bin.Bytes()
	cut := full[:len(full)-1] // the fifth record is truncated
	pull := func(src Source) (Trace, error) { return ReadAll(src) }
	for _, size := range []int{1, 2, 512} {
		for _, tc := range []struct {
			name  string
			data  []byte
			limit int
			ops   int
			err   string
		}{
			{"exactly n", full, 5, 5, "<nil>"},
			{"n+1", full, 4, 4, "trace: stream exceeds 4 operations"},
			{"decode error at n+1", cut, 4, 4, "trace: binary op #4: reading 3-byte record: unexpected EOF"},
			{"decode error inside", cut, 9, 4, "trace: binary op #4: reading 3-byte record: unexpected EOF"},
		} {
			want, werr := pull(&Counter{Src: Limit(NewBinaryDecoder(bytes.NewReader(tc.data)), tc.limit)})
			c := &Counter{Src: Limit(NewBinaryDecoder(bytes.NewReader(tc.data)), tc.limit)}
			got, gerr := readBatches(t, c, size)
			if len(got) != tc.ops || fmt.Sprint(gerr) != tc.err || !reflect.DeepEqual(got, want) || fmt.Sprint(werr) != tc.err {
				t.Errorf("%s, batches of %d: %d ops, %v (Next: %d ops, %v); want %d ops, %s",
					tc.name, size, len(got), gerr, len(want), werr, tc.ops, tc.err)
			}
			if c.N != tc.ops || (gerr == nil) != (c.Err == nil) || gerr != nil && c.Err.Error() != tc.err {
				t.Errorf("%s, batches of %d: Counter N=%d Err=%v", tc.name, size, c.N, c.Err)
			}
		}
	}

	// A consumer that refuses the second op of a batch (a check error)
	// hands the rest back: N counts the two ops it took, as pulling one at
	// a time would, and the decode error behind them never reaches Err —
	// what lets goinstr.Check tell a bad capture from a bad trace.
	c := &Counter{Src: NewBinaryDecoder(bytes.NewReader(cut))}
	buf := make([]Op, 512)
	n, err := NextBatch(c, buf)
	if n != 4 || err != nil {
		t.Fatalf("first batch: %d ops, %v; want the 4 whole records", n, err)
	}
	Unread(c, n-2)
	if c.N != 2 || c.Err != nil {
		t.Errorf("after Unread: N=%d Err=%v, want 2 and nil", c.N, c.Err)
	}
	// Limit takes handed-back ops back into its budget.
	l := Limit(NewBinaryDecoder(bytes.NewReader(full)), 3).(*limitSource)
	if got, err := readBatches(t, Head(l, 3), 512); len(got) != 3 || err != nil || l.left != 0 {
		t.Fatalf("Limit(3): %d ops, %v, %d left", len(got), err, l.left)
	}
	if Unread(l, 2); l.left != 2 {
		t.Errorf("Limit after Unread(2): %d left, want 2", l.left)
	}
}

// TestValidateSourceMatchesValidate: the incremental validator accepts and
// rejects exactly what the slice fold does, with identical errors.
func TestValidateSourceMatchesValidate(t *testing.T) {
	cases := []Trace{
		{Wr(0, 0), ForkOp(0, 1), Rd(1, 0), JoinOp(0, 1)}, // feasible
		{Rel(0, 0)},                             // release without hold
		{Acq(0, 0), Acq(1, 0)},                  // double acquire
		{Rd(1, 0)},                              // unforked thread acts
		{ForkOp(0, 1), JoinOp(0, 1), Rd(1, 0)},  // joined thread acts
		{ForkOp(0, 1), ForkOp(0, 1)},            // double fork
		{ForkOp(0, 1), Acq(1, 0), JoinOp(0, 1)}, // feasible: §2 says nothing about held locks at join
	}
	for i, tr := range cases {
		want := Validate(tr)
		got, gotErr := ReadAll(ValidateSource(tr.Source(), nil))
		if (want == nil) != (gotErr == nil) {
			t.Fatalf("case %d: Validate=%v ValidateSource=%v", i, want, gotErr)
		}
		if want != nil && want.Error() != gotErr.Error() {
			t.Fatalf("case %d: error drift:\n%v\nvs\n%v", i, want, gotErr)
		}
		if want == nil && !reflect.DeepEqual(tr, got) {
			t.Fatalf("case %d: feasible trace altered: %v", i, got)
		}
		if want != nil {
			var inf *InfeasibleError
			if !errors.As(gotErr, &inf) {
				t.Fatalf("case %d: streaming error is not an InfeasibleError: %v", i, gotErr)
			}
			// The prefix before the offending op must have passed through.
			if len(got) != inf.Index {
				t.Fatalf("case %d: %d ops delivered before error at index %d", i, len(got), inf.Index)
			}
		}
	}
}

// lowersEquivalently checks that two lowered traces are identical up to a
// bijective renaming of lock ids — the freedom DesugarSource's parity
// numbering takes relative to the slice Desugar's dense numbering, under
// which happens-before (and so every report) is invariant.
func lowersEquivalently(t *testing.T, a, b Trace) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d\n%v\nvs\n%v", len(a), len(b), a, b)
	}
	fwd, rev := map[Lock]Lock{}, map[Lock]Lock{}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.T != y.T || x.X != y.X || x.U != y.U {
			t.Fatalf("op %d differs beyond lock id: %v vs %v", i, x, y)
		}
		if x.Kind != Acquire && x.Kind != Release {
			continue
		}
		if m, ok := fwd[x.M]; ok && m != y.M {
			t.Fatalf("op %d: lock %d maps to both %d and %d", i, x.M, m, y.M)
		}
		if m, ok := rev[y.M]; ok && m != x.M {
			t.Fatalf("op %d: locks %d and %d collapse onto %d", i, m, x.M, y.M)
		}
		fwd[x.M], rev[y.M] = y.M, x.M
	}
}

// TestDesugarSourceMatchesDesugar: the streaming lowering emits the same
// operation sequence as the slice lowering modulo lock renaming, including
// barrier round grouping and dropped incomplete rounds.
func TestDesugarSourceMatchesDesugar(t *testing.T) {
	tr := Trace{
		ForkOp(0, 1), ForkOp(0, 2),
		Acq(0, 3), Wr(0, 0), Rel(0, 3), // real lock above the pseudo ids the slice version allocates
		VWr(0, 5), VRd(1, 5), VRd(2, 5),
		BarrierOp(0, 0), BarrierOp(1, 0), BarrierOp(2, 0), // 3-party round
		BarrierOp(1, 1), BarrierOp(2, 1), // 2-party round of another barrier
		Wr(1, 1), Wr(2, 2),
		BarrierOp(0, 0), // incomplete round: dropped at EOF
		JoinOp(0, 1), JoinOp(0, 2),
	}
	MustValidate(tr)
	ext := &Extensions{BarrierParties: map[Lock]int{0: 3}}
	want := tr.Desugar(ext)
	got, err := ReadAll(DesugarSource(tr.Source(), ext))
	if err != nil {
		t.Fatal(err)
	}
	lowersEquivalently(t, want, got)

	// A core-only trace passes through untouched (identity, not just
	// bijection: real locks keep their relative order and multiplicity).
	core := Trace{ForkOp(0, 1), Acq(1, 0), Wr(1, 0), Rel(1, 0), JoinOp(0, 1)}
	gotCore, err := ReadAll(DesugarSource(core.Source(), nil))
	if err != nil {
		t.Fatal(err)
	}
	lowersEquivalently(t, core.Desugar(nil), gotCore)
}

// TestDesugarSourceParity: the streaming stage's lock numbering keeps real
// and pseudo locks disjoint by parity, with no dependence on a pre-scan.
func TestDesugarSourceParity(t *testing.T) {
	tr := Trace{ForkOp(0, 1), VWr(0, 9), Acq(1, 7), Rel(1, 7), VRd(1, 9), JoinOp(0, 1)}
	MustValidate(tr)
	got, err := ReadAll(DesugarSource(tr.Source(), nil))
	if err != nil {
		t.Fatal(err)
	}
	seenReal, seenPseudo := false, false
	for _, op := range got {
		if op.Kind != Acquire && op.Kind != Release {
			continue
		}
		if op.M%2 == 0 {
			seenReal = true
			if op.M != 14 {
				t.Fatalf("real lock 7 should map to 14, got %d", op.M)
			}
		} else {
			seenPseudo = true
		}
	}
	if !seenReal || !seenPseudo {
		t.Fatalf("expected both real and pseudo locks in %v", got)
	}
}

// TestGenerateSourceMatchesGenerate: for equal seeds and configs the
// streaming generator yields exactly the trace Generate materializes.
func TestGenerateSourceMatchesGenerate(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Ops = 5000
	want := Generate(rand.New(rand.NewSource(42)), cfg)
	got, err := ReadAll(GenerateSource(rand.New(rand.NewSource(42)), cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("GenerateSource diverges from Generate: %d vs %d ops", len(got), len(want))
	}
	// And the source is exhausted exactly once.
	src := GenerateSource(rand.New(rand.NewSource(42)), cfg)
	if n := func() int {
		n := 0
		for {
			if _, err := src.Next(); err == io.EOF {
				return n
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}(); n != len(want) {
		t.Fatalf("source yielded %d ops, want %d", n, len(want))
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("exhausted source returned %v, want io.EOF", err)
	}
}

// TestDecodeErrorLineNumbers: the regression test for the off-by-silence
// bug — text decode errors carry the 1-based line of the offending input
// line even after comments and blank lines, and scanner-level failures
// (like an oversized line) are positioned too instead of dropped.
func TestDecodeErrorLineNumbers(t *testing.T) {
	input := "# header comment\n\nrd 0 0\n\n# another\nbogus 1 2\n"
	_, err := Decode(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("want error at line 6, got %v", err)
	}

	_, err = Decode(strings.NewReader("rd 0 0\nwr 0 -1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want operand error at line 2, got %v", err)
	}

	oversized := "rd 0 0\n# " + strings.Repeat("x", 1<<20) + "\n"
	_, err = Decode(strings.NewReader(oversized))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("want positioned scanner error at line 2, got %v", err)
	}
}
