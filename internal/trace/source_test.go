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

	"repro/internal/epoch"
)

func TestSliceSourceReadAll(t *testing.T) {
	tr := Trace{Wr(0, 0), Rd(0, 1), Wr(0, 2)}
	back, err := ReadAll(tr.Source())
	if err != nil || !reflect.DeepEqual(tr, back) {
		t.Fatalf("ReadAll: %v, %v", back, err)
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

// referenceTextOp is the text decoder's line parser as it was before it
// parsed in place — TrimSpace, strings.Fields and one string per operand —
// kept as the reference the in-place parser must reproduce. ok is false
// for a blank or comment line.
func referenceTextOp(raw string) (op Op, ok bool, err error) {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return Op{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Op{}, true, fmt.Errorf("want 3 fields, got %d", len(fields))
	}
	t, err := referenceOperand(fields[1])
	if err != nil {
		return Op{}, true, fmt.Errorf("thread: %v", err)
	}
	arg, err := referenceOperand(fields[2])
	if err != nil {
		return Op{}, true, fmt.Errorf("operand: %v", err)
	}
	for k, name := range kindNames {
		if name != fields[0] {
			continue
		}
		op := Op{Kind: Kind(k), T: epoch.Tid(t)}
		switch op.Kind {
		case Read, Write, VolatileRead, VolatileWrite, AtomicLoad, AtomicStore, AtomicRMW:
			op.X = Var(arg)
		case Fork, Join:
			op.U = epoch.Tid(arg)
		default:
			op.M = Lock(arg)
		}
		return op, true, nil
	}
	return Op{}, true, fmt.Errorf("unknown operation %q", fields[0])
}

// referenceOperand is the operand parser as it was, on a string.
func referenceOperand(s string) (int32, error) {
	if len(s) > 1 {
		switch s[0] {
		case 'x', 'm', 'b', 't', 'c', 'a', 'o':
			s = s[1:]
		}
	}
	return parseID(s, "operand")
}

// TestTextDecoderMatchesReference: on lines built to probe the in-place
// parser's edges — prefixes, signs, leading zeros, ids at and past int32,
// ASCII and Unicode white space, invalid UTF-8 — and on random mutations
// of them, the decoder returns the reference parser's op or its error
// text, at the right line.
func TestTextDecoderMatchesReference(t *testing.T) {
	lines := []string{
		"rd 0 0", "wr t1 x3", "acq 1 m0", "once 0 o3", "armw 1 a2", "send 0 c0", "barrier 0 b1",
		"  \t# a comment", "", "\v\f\r", "#", "rd 0", "rd 0 1 2", "frob 0 1", "RD 0 1",
		"rd +3 4", "rd -0 4", "rd 0 -1", "rd 00012 x0007", "rd x 1", "rd 0 x", "rd 0 xx1",
		"rd 0 2147483647", "rd 0 2147483648", "rd 0 9999999999", "rd 0 99999999999",
		"rd 0 99999999999999999999", "rd 0 1_000", "rd 0 0x10",
		"rd 0 1", "rd 0\u00851", " rd 0 1", "rd 0 1 ", "rd \xff 1", "r\xffd 0 1", "rd 0 \xc2",
		"fork 0 70000", "wr\t0\t5",
	}
	check := func(line string) {
		t.Helper()
		want, ok, werr := referenceTextOp(line)
		// Two lines, so a right answer at the wrong line number shows.
		d := NewTextDecoder(strings.NewReader("# first\n" + line + "\n"))
		got, gerr := d.Next()
		switch {
		case werr != nil:
			if w := fmt.Sprintf("trace: line 2: %v", werr); gerr == nil || gerr.Error() != w {
				t.Fatalf("line %q: error %v, want %s", line, gerr, w)
			}
		case !ok:
			if gerr != io.EOF {
				t.Fatalf("line %q: got %v, %v; want it skipped", line, got, gerr)
			}
		case gerr != nil || got != want:
			t.Fatalf("line %q: got %v, %v; want %v", line, got, gerr, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte(" \t0123456789xmt#-+\xc2\xa0\x85abdrw")
	for _, line := range lines {
		check(line)
		for range 200 {
			b := []byte(line)
			for range 1 + rng.Intn(3) {
				switch i := rng.Intn(len(b) + 1); rng.Intn(3) {
				case 0:
					b = append(b[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[i:]...)...)
				case 1:
					if i < len(b) {
						b = append(b[:i], b[i+1:]...)
					}
				default:
					if i < len(b) {
						b[i] = alphabet[rng.Intn(len(alphabet))]
					}
				}
			}
			if !bytes.ContainsAny(b, "\n") {
				check(string(b))
			}
		}
	}
}

// TestTextDecoderDoesNotAllocatePerLine: decoding allocates for the
// decoder and the scanner's buffer, and nothing per line.
func TestTextDecoderDoesNotAllocatePerLine(t *testing.T) {
	decode := func(text string) func() {
		return func() {
			d := NewTextDecoder(strings.NewReader(text))
			for {
				if _, err := d.Next(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	lines := func(n int) string {
		var b strings.Builder
		b.WriteString("# a comment\nfork 0 1\n")
		for i := range n {
			fmt.Fprintf(&b, "%s %d x%d\n", []string{"rd", "wr", "acq", "rel", "send", "aload"}[i%6], i%2, i)
		}
		return b.String()
	}
	small, large := testing.AllocsPerRun(5, decode(lines(10))), testing.AllocsPerRun(5, decode(lines(10000)))
	if large > small {
		t.Errorf("decoding 10k lines allocates %v times, 10 lines %v", large, small)
	}
}
