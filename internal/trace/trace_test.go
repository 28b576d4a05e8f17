package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/epoch"
)

// figure1 is the example trace of Fig. 1 of the paper: thread 0 (A) writes
// x, releases m; thread 1 (B) acquires m, reads x; A reads x; A writes x.
// The fork making B exist is implicit in the figure; we make it explicit.
func figure1() Trace {
	return Trace{
		ForkOp(0, 1),
		Wr(0, 0),
		Rel(0, 0), // rel(A,m) — but a release needs a prior acquire; see test
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Rd(1, 3), "rd(1,x3)"},
		{Wr(0, 0), "wr(0,x0)"},
		{Acq(2, 1), "acq(2,m1)"},
		{Rel(2, 1), "rel(2,m1)"},
		{ForkOp(0, 1), "fork(0,1)"},
		{JoinOp(0, 1), "join(0,1)"},
		{VRd(1, 2), "vrd(1,x2)"},
		{BarrierOp(3, 0), "barrier(3,b0)"},
	}
	for _, tc := range cases {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestConflicts(t *testing.T) {
	cases := []struct {
		a, b Op
		want bool
	}{
		{Rd(0, 1), Rd(1, 1), false},  // read-read never conflicts
		{Rd(0, 1), Wr(1, 1), true},   // read-write same var
		{Wr(0, 1), Wr(1, 1), true},   // write-write same var
		{Wr(0, 1), Wr(1, 2), false},  // different vars
		{Wr(0, 1), Acq(1, 1), false}, // non-access
		{ForkOp(0, 1), Wr(1, 1), false},
	}
	for _, tc := range cases {
		if got := tc.a.Conflicts(tc.b); got != tc.want {
			t.Errorf("%v conflicts %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Conflicts(tc.a); got != tc.want {
			t.Errorf("Conflicts not symmetric for %v, %v", tc.a, tc.b)
		}
	}
}

func TestThreadsVarsLocks(t *testing.T) {
	tr := Trace{ForkOp(0, 2), Wr(2, 5), Acq(0, 3), Rel(0, 3), Rd(0, 1)}
	if got := tr.Threads(); !reflect.DeepEqual(got, []epoch.Tid{0, 2}) {
		t.Errorf("Threads = %v", got)
	}
	if got := tr.Vars(); !reflect.DeepEqual(got, []Var{1, 5}) {
		t.Errorf("Vars = %v", got)
	}
	if got := tr.Locks(); !reflect.DeepEqual(got, []Lock{3}) {
		t.Errorf("Locks = %v", got)
	}
}

func TestValidateAcceptsLegalTrace(t *testing.T) {
	tr := Trace{
		ForkOp(0, 1),
		Acq(0, 0), Wr(0, 0), Rel(0, 0),
		Acq(1, 0), Rd(1, 0), Rel(1, 0),
		JoinOp(0, 1),
		Wr(0, 0),
	}
	if err := Validate(tr); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateConstraint1DoubleAcquire(t *testing.T) {
	tr := Trace{ForkOp(0, 1), Acq(0, 0), Acq(1, 0)}
	wantRule(t, tr, 1)
	// Re-acquire by the same thread (locks are not reentrant in §2).
	tr = Trace{Acq(0, 0), Acq(0, 0)}
	wantRule(t, tr, 1)
}

func TestValidateConstraint2BadRelease(t *testing.T) {
	wantRule(t, Trace{Rel(0, 0)}, 2)
	wantRule(t, Trace{ForkOp(0, 1), Acq(0, 0), Rel(1, 0)}, 2)
}

func TestValidateConstraint3DoubleFork(t *testing.T) {
	tr := Trace{ForkOp(0, 1), Wr(1, 0), JoinOp(0, 1), ForkOp(0, 1)}
	wantRule(t, tr, 3)
	wantRule(t, Trace{ForkOp(0, 0)}, 3) // self-fork
}

func TestValidateConstraint4LifecycleViolations(t *testing.T) {
	wantRule(t, Trace{Wr(1, 0)}, 4) // act before fork
	tr := Trace{ForkOp(0, 1), Wr(1, 0), JoinOp(0, 1), Wr(1, 0)}
	wantRule(t, tr, 4) // act after join
	wantRule(t, Trace{JoinOp(0, 1)}, 4)
}

func TestValidateConstraint5EmptyThread(t *testing.T) {
	tr := Trace{ForkOp(0, 1), JoinOp(0, 1)}
	wantRule(t, tr, 5)
}

// TestValidateRejectsOutOfRangeTid: a thread id no epoch can hold — above
// epoch.MaxTid or negative, acting or forked — is a typed, positioned
// error from the validator, not a panic further down the pipeline.
func TestValidateRejectsOutOfRangeTid(t *testing.T) {
	for _, tc := range []struct {
		tr    Trace
		index int
		tid   epoch.Tid
	}{
		{Trace{ForkOp(0, 70000), Wr(70000, 1), Wr(0, 1)}, 0, 70000},
		{Trace{Wr(0, 1), ForkOp(0, epoch.MaxTid+1)}, 1, epoch.MaxTid + 1},
		{Trace{Wr(0, 1), Wr(70000, 1)}, 1, 70000},
		{Trace{JoinOp(0, -1)}, 0, -1},
		{Trace{Rd(-7, 0)}, 0, -7},
	} {
		_, streamErr := ReadAll(ValidateSource(tc.tr.Source(), nil))
		for _, err := range []error{Validate(tc.tr), streamErr} {
			var re *TidRangeError
			if !errors.As(err, &re) {
				t.Fatalf("%v: err = %v, want *TidRangeError", tc.tr, err)
			}
			if re.Index != tc.index || re.Tid != tc.tid || re.Op != tc.tr[tc.index] {
				t.Errorf("%v: err = %+v, want index %d tid %d", tc.tr, re, tc.index, tc.tid)
			}
		}
	}
	if err := Validate(Trace{ForkOp(0, epoch.MaxTid), Wr(epoch.MaxTid, 0)}); err != nil {
		t.Errorf("tid MaxTid rejected: %v", err)
	}
}

func wantRule(t *testing.T, tr Trace, rule int) {
	t.Helper()
	err := Validate(tr)
	if err == nil {
		t.Fatalf("Validate(%v): want constraint (%d) violation, got nil", tr, rule)
	}
	ie, ok := err.(*InfeasibleError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ie.Rule != rule {
		t.Fatalf("Validate(%v): got rule %d (%v), want %d", tr, ie.Rule, err, rule)
	}
}

func TestGenerateAlwaysFeasible(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := Generate(rng, cfg)
		if err := Validate(tr); err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, tr)
		}
		if len(tr) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a := Generate(rand.New(rand.NewSource(42)), cfg)
	b := Generate(rand.New(rand.NewSource(42)), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
}

func TestGenerateRespectsThreadBound(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Threads = 3
	cfg.Ops = 300
	tr := Generate(rand.New(rand.NewSource(9)), cfg)
	for _, tid := range tr.Threads() {
		if int(tid) >= cfg.Threads {
			t.Fatalf("thread %d exceeds bound %d", tid, cfg.Threads)
		}
	}
}

func TestDesugarVolatile(t *testing.T) {
	// A trace using real lock m0 and two volatile ops on the same
	// location: the volatile becomes one fresh pseudo-lock numbered just
	// above the real locks.
	tr := Trace{ForkOp(0, 1), Acq(0, 0), Rel(0, 0), VWr(0, 2), VRd(1, 2)}
	low := tr.Desugar(nil)
	want := Trace{
		ForkOp(0, 1),
		Acq(0, 0), Rel(0, 0),
		Acq(0, 1), Rel(0, 1),
		Acq(1, 1), Rel(1, 1),
	}
	if !reflect.DeepEqual(low, want) {
		t.Fatalf("Desugar = %v, want %v", low, want)
	}
	// The lowered trace is itself feasible and uses a dense lock space.
	MustValidate(low)
}

func TestDesugarDistinctVolatilesGetDistinctLocks(t *testing.T) {
	tr := Trace{ForkOp(0, 1), VWr(0, 7), VWr(1, 9)}
	low := tr.Desugar(nil)
	if low[1].M == low[3].M {
		t.Fatalf("volatiles x7 and x9 share a pseudo-lock: %v", low)
	}
}

func TestDesugarBarrierCompleteRound(t *testing.T) {
	tr := Trace{ForkOp(0, 1), BarrierOp(0, 0), BarrierOp(1, 0)}
	low := tr.Desugar(&Extensions{BarrierParties: map[Lock]int{0: 2}})
	// One complete round: 2 participants × (rel-phase pair + acq-phase
	// pair) = 8 lock ops after the fork.
	if len(low) != 1+8 {
		t.Fatalf("lowered length = %d, want 9: %v", len(low), low)
	}
	// An incomplete round emits nothing.
	tr = Trace{ForkOp(0, 1), BarrierOp(0, 0)}
	low = tr.Desugar(&Extensions{BarrierParties: map[Lock]int{0: 2}})
	if len(low) != 1 {
		t.Fatalf("incomplete round should emit nothing: %v", low)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := Generate(rand.New(rand.NewSource(3)), DefaultGenConfig())
	tr = append(tr, VRd(0, 1), VWr(0, 1), BarrierOp(0, 0))
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", tr, back)
	}
}

func TestDecodePaperStyleOperands(t *testing.T) {
	in := "# Fig. 1 fragment\nfork t0 t1\nwr t0 x0\nacq t1 m0\nrel t1 m0\n\nrd t1 x0\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{ForkOp(0, 1), Wr(0, 0), Acq(1, 0), Rel(1, 0), Rd(1, 0)}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("Decode = %v, want %v", tr, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"rd 0", "line 1: want 3 fields"},
		{"frob 0 1", "line 1: unknown operation"},
		{"rd zero 1", "line 1: thread"},
		{"rd 0 -1", "line 1: operand: negative operand"},
		{"rd 0 1 extra2", "line 1: want 3 fields"},
		// Ids past int32 are errors, not wrapped ids: 2^31 used to become
		// a negative variable, 2^32+1 variable x1 and thread 1.
		{"rd 0 2147483647\nwr 0 2147483648", "line 2: operand: operand 2147483648 exceeds 2147483647"},
		{"fork 0 1\nwr 0 4294967297\nwr 1 1", "line 2: operand: operand 4294967297 exceeds"},
		{"fork 4294967297 1", "line 1: thread: operand 4294967297 exceeds"},
		{"acq 0 m99999999999999999999", "line 1: operand: strconv.Atoi"},
	}
	for _, tc := range cases {
		_, err := Decode(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode(%q) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
	// The largest id still decodes.
	if tr, err := Decode(strings.NewReader("rd 0 x2147483647")); err != nil || tr[0].X != 1<<31-1 {
		t.Errorf("Decode(rd 0 x2147483647) = %v, %v", tr, err)
	}
}

// TestParseIDValues: the -chancaps / ?chancap= form takes ids and values
// in [0, MaxInt32]; anything beyond is an error, never a wrapped id.
func TestParseIDValues(t *testing.T) {
	cases := []struct {
		in   string
		min  int
		want map[Lock]int
		err  string
	}{
		{"", 0, nil, ""},
		{"0:4,2:1", 0, map[Lock]int{0: 4, 2: 1}, ""},
		{"2147483647:4", 0, map[Lock]int{1<<31 - 1: 4}, ""},
		{"3:2147483647", 1, map[Lock]int{3: 1<<31 - 1}, ""},
		{"4294967297:4", 0, nil, `bad id "4294967297"`},
		{"2147483648:4", 0, nil, `bad id "2147483648"`},
		{"-1:4", 0, nil, `bad id "-1"`},
		{"1:4294967297", 0, nil, `bad value "4294967297" for id 1`},
		{"1:0", 1, nil, `bad value "0" for id 1 (min 1)`},
		{"1", 0, nil, `"1" is not an id:value pair`},
	}
	for _, tc := range cases {
		got, err := ParseIDValues(tc.in, "caps", tc.min)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseIDValues(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseIDValues(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// Keep the figure1 helper referenced (it is expanded in the spec package's
// Figure-1 test; here it only documents the shape).
var _ = figure1

// Desugaring any feasible trace (with arbitrary volatile/barrier additions)
// yields a feasible core trace — the property the detectors' replay path
// relies on.
func TestDesugarPreservesFeasibility(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Ops = 50
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := Generate(rng, cfg)
		// Sprinkle extended operations over the running threads: volatile
		// accesses anywhere, and single-party barrier rounds (which lower
		// at the arrival itself). Multi-party rounds complete at the last
		// arrival and can legally attribute lock operations to a thread
		// that a *hand-mangled* interleaving has already joined — real
		// programs cannot join a thread blocked in a barrier, so the
		// sprinkler must not fabricate that situation; the dedicated
		// barrier tests cover multi-party rounds.
		var ext Trace
		for i, op := range tr {
			ext = append(ext, op)
			if i%7 == 3 {
				ext = append(ext, VRd(op.T, Var(9)))
			}
			if i%11 == 5 {
				ext = append(ext, VWr(op.T, Var(10)))
			}
			if i%13 == 7 {
				ext = append(ext, BarrierOp(op.T, 0))
			}
		}
		low := ext.Desugar(&Extensions{BarrierParties: map[Lock]int{0: 1}})
		if err := Validate(low); err != nil {
			t.Fatalf("seed %d: desugared trace infeasible: %v", seed, err)
		}
		for _, op := range low {
			if !op.Kind.IsCore() {
				t.Fatalf("seed %d: extended op survived desugaring: %v", seed, op)
			}
		}
	}
}

// §2 allows several joins on one terminated thread; a join on a
// never-forked thread is still rejected.
func TestValidateMultipleJoins(t *testing.T) {
	tr := Trace{
		ForkOp(0, 1), ForkOp(0, 2),
		Wr(1, 0),
		JoinOp(0, 1),
		JoinOp(2, 1), // second joiner of thread 1: legal
		Wr(2, 1),
	}
	if err := Validate(tr); err != nil {
		t.Fatalf("multiple joins rejected: %v", err)
	}
	wantRule(t, Trace{ForkOp(0, 1), Wr(1, 0), JoinOp(1, 2)}, 4)
}

func TestGenerateProducesDoubleJoins(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Ops = 200
	cfg.JoinWeight = 5
	cfg.ForkWeight = 5
	found := false
	for seed := int64(0); seed < 100 && !found; seed++ {
		tr := Generate(rand.New(rand.NewSource(seed)), cfg)
		joins := map[epoch.Tid]int{}
		for _, op := range tr {
			if op.Kind == Join {
				joins[op.U]++
				if joins[op.U] > 1 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("generator never produced a double join over 100 seeds")
	}
}
