package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenV1Trace is the trace frozen inside testdata/golden_v1.bin, a
// VFTb\x01 stream written before the format-v2 bump. The fixture bytes are
// committed, never regenerated: the test proves a v2 reader decodes
// yesterday's captures to the identical Trace.
var goldenV1Trace = Trace{
	ForkOp(0, 1),
	Wr(0, 0),
	Rd(1, 300),
	Acq(1, 0),
	Rel(1, 0),
	VRd(1, 7),
	VWr(0, 7),
	BarrierOp(0, 2),
	BarrierOp(1, 2),
	JoinOp(0, 1),
	Wr(0, 1<<20),
	ForkOp(0, 200),
	Wr(200, 5),
	JoinOp(0, 200),
}

func TestGoldenV1Decode(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	d := NewBinaryDecoder(bytes.NewReader(data))
	got, err := ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(goldenV1Trace, got) {
		t.Fatalf("v1 fixture decodes differently under the v2 decoder:\n%v\nvs\n%v", goldenV1Trace, got)
	}
	if d.Version() != BinaryVersion1 {
		t.Fatalf("fixture version = %d, want 1", d.Version())
	}
}

// TestEncodeVersionPinning: the encoder writes the newest version only, so
// a Go-sync kind round-trips through it.
func TestEncodeVersionPinning(t *testing.T) {
	v2only := Trace{SendOp(0, 0)}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, v2only); err != nil {
		t.Fatal(err)
	}
	d := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	back, err := ReadAll(d)
	if err != nil || !reflect.DeepEqual(v2only, back) {
		t.Fatalf("v2 round trip: %v, %v", back, err)
	}
	if d.Version() != BinaryVersion2 {
		t.Fatalf("encode wrote version %d, want 2", d.Version())
	}
}

// TestV1StreamRejectsV2Kind: a hand-crafted v1 header followed by a
// ChanSend record is corrupt, not a quiet channel op — v1 readers and the
// v2 reader agree on what a v1 stream may contain.
func TestV1StreamRejectsV2Kind(t *testing.T) {
	data := []byte(binaryMagicPrefix + "\x01")
	data = append(data, 0x03, byte(ChanSend), 0x00, 0x00)
	_, err := ReadAll(NewBinaryDecoder(bytes.NewReader(data)))
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("v1 stream with v2 kind: want unknown-kind error, got %v", err)
	}
}

// TestValidateChannelRules is the Rule-6 feasibility table: the validator
// accepts exactly the channel disciplines a real Go execution could
// produce.
func TestValidateChannelRules(t *testing.T) {
	buf1 := &Extensions{ChanCapacity: map[Lock]int{0: 1}}
	cases := []struct {
		name string
		ext  *Extensions
		tr   Trace
		want string // "" = feasible, else error substring
	}{
		{"buffered-send-recv", buf1, Trace{SendOp(0, 0), RecvOp(0, 0)}, ""},
		{"unbuffered-rendezvous", nil, Trace{ForkOp(0, 1), SendOp(1, 0), RecvOp(0, 0), JoinOp(0, 1)}, ""},
		{"recv-before-send", nil, Trace{RecvOp(0, 0)}, "before any send"},
		{"recv-after-close", nil, Trace{CloseOp(0, 0), RecvOp(0, 0), RecvOp(0, 0)}, ""},
		{"send-on-closed", buf1, Trace{CloseOp(0, 0), SendOp(0, 0)}, "send on closed"},
		{"close-of-closed", nil, Trace{CloseOp(0, 0), CloseOp(0, 0)}, "close of closed"},
		{"buffer-overfill-blocks", buf1, Trace{ForkOp(0, 1), SendOp(1, 0), SendOp(1, 0), JoinOp(0, 1)}, "blocked"},
		{"blocked-sender-acts", nil, Trace{ForkOp(0, 1), SendOp(1, 0), Wr(1, 0), RecvOp(0, 0), JoinOp(0, 1)}, "acts while blocked"},
		{"close-strands-sender", nil, Trace{ForkOp(0, 1), SendOp(1, 0), CloseOp(0, 0), JoinOp(0, 1)}, "blocked sender"},
		{"join-on-blocked-sender", nil, Trace{ForkOp(0, 1), SendOp(1, 0), JoinOp(0, 1)}, "blocked sending"},
		{"two-blocked-drain-fifo", nil, Trace{
			ForkOp(0, 1), ForkOp(0, 2),
			SendOp(1, 0), SendOp(2, 0),
			RecvOp(0, 0), RecvOp(0, 0),
			JoinOp(0, 1), JoinOp(0, 2),
		}, ""},
		{"atomic-once-free", nil, Trace{ALoad(0, 0), AStore(0, 0), ARMW(0, 0), OnceOp(0, 0)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateExt(tc.tr, tc.ext)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("feasible trace rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
			var inf *InfeasibleError
			if !errors.As(err, &inf) || inf.Rule != 6 {
				t.Fatalf("channel violations are Rule 6, got %v", err)
			}
		})
	}
}

// TestDesugarGoSyncIsCore: lowering any mix of the Go-synchronization
// kinds yields a feasible trace in the §2 core language, and distinct
// synchronization objects never share a pseudo-lock.
func TestDesugarGoSyncIsCore(t *testing.T) {
	ext := &Extensions{ChanCapacity: map[Lock]int{0: 1}}
	tr := Trace{
		ForkOp(0, 1),
		AStore(0, 3),
		SendOp(0, 0),
		ALoad(1, 3),
		RecvOp(1, 0),
		OnceOp(0, 2),
		OnceOp(1, 2),
		ARMW(1, 4),
		CloseOp(0, 0),
		RecvOp(1, 0),
		JoinOp(0, 1),
	}
	if err := ValidateExt(tr, ext); err != nil {
		t.Fatal(err)
	}
	low := tr.Desugar(ext)
	if err := Validate(low); err != nil {
		t.Fatalf("lowered trace infeasible: %v\n%v", err, low)
	}
	for _, op := range low {
		if !op.Kind.IsCore() {
			t.Fatalf("extended op survived lowering: %v", op)
		}
	}
	// Distinct objects (atomic 3, atomic 4, once 2, channel slot, channel
	// close) must map to distinct pseudo-locks; same object, same lock.
	locks := map[Lock]int{}
	for _, op := range low {
		if op.Kind == Acquire {
			locks[op.M]++
		}
	}
	if len(locks) < 5 {
		t.Fatalf("expected >= 5 distinct pseudo-locks, got %d in %v", len(locks), low)
	}
}

// TestDesugarChannelShapes pins the lowering's per-case shapes: a buffered
// send/recv pair shares one slot lock, an unbuffered rendezvous emits the
// deferred double round at the receive, and a close orders later
// zero-value receives after it.
func TestDesugarChannelShapes(t *testing.T) {
	t.Run("buffered-slot", func(t *testing.T) {
		ext := &Extensions{ChanCapacity: map[Lock]int{0: 1}}
		tr := Trace{SendOp(0, 0), RecvOp(0, 0)}
		low := tr.Desugar(ext)
		// send -> acq+rel on slot 0; recv -> acq+rel on the same slot.
		want := []Kind{Acquire, Release, Acquire, Release}
		if len(low) != len(want) {
			t.Fatalf("lowered = %v", low)
		}
		for i, k := range want {
			if low[i].Kind != k {
				t.Fatalf("op %d kind = %v, want %v (%v)", i, low[i].Kind, k, low)
			}
		}
		if low[0].M != low[2].M {
			t.Fatalf("send and recv of the same value use different slot locks: %v", low)
		}
	})
	t.Run("unbuffered-deferred", func(t *testing.T) {
		tr := Trace{ForkOp(0, 1), SendOp(1, 0), RecvOp(0, 0), JoinOp(0, 1)}
		low := tr.Desugar(nil)
		// Nothing between fork and the recv position; then the two-party
		// double round: s,s r,r s,s r,r (acq+rel each) on one rendezvous
		// lock — 8 lock ops, sender first.
		if len(low) != 2+8 {
			t.Fatalf("lowered = %v", low)
		}
		if low[1].T != 1 || low[1].Kind != Acquire {
			t.Fatalf("sender must enter the rendezvous first: %v", low)
		}
		m := low[1].M
		for _, op := range low[1:9] {
			if op.M != m {
				t.Fatalf("rendezvous spans multiple locks: %v", low)
			}
		}
	})
	t.Run("close-orders-drained-recv", func(t *testing.T) {
		tr := Trace{ForkOp(0, 1), CloseOp(0, 0), RecvOp(1, 0), JoinOp(0, 1)}
		low := tr.Desugar(nil)
		// close -> pair, zero-value recv -> pair on the same close lock.
		if len(low) != 2+4 {
			t.Fatalf("lowered = %v", low)
		}
		if low[1].M != low[3].M {
			t.Fatalf("close and drained recv use different locks: %v", low)
		}
	})
}

// TestDesugarSourceMatchesDesugarGoSync: the streaming lowering agrees
// with the slice lowering on the new kinds, including deferred rendezvous
// emission and blocked sends dropped at EOF.
func TestDesugarSourceMatchesDesugarGoSync(t *testing.T) {
	ext := &Extensions{ChanCapacity: map[Lock]int{0: 2, 1: 0}}
	tr := Trace{
		ForkOp(0, 1), ForkOp(0, 2),
		AStore(0, 3),
		SendOp(0, 0), SendOp(0, 0), // fills the buffer
		RecvOp(1, 0), ALoad(1, 3),
		SendOp(2, 1), RecvOp(1, 1), // rendezvous
		OnceOp(1, 0), OnceOp(2, 0),
		CloseOp(0, 0),
		RecvOp(2, 0), RecvOp(2, 0), // drains buffer, then zero-value
		ARMW(2, 3),
		SendOp(1, 1), // blocks forever: dropped at EOF
		JoinOp(0, 2),
	}
	if err := ValidateExt(tr, ext); err != nil {
		t.Fatal(err)
	}
	want := tr.Desugar(ext)
	got, err := ReadAll(DesugarSource(tr.Source(), ext))
	if err != nil {
		t.Fatal(err)
	}
	lowersEquivalently(t, want, got)
}

// TestGenerateGoSync: the generator's Go-synchronization mode emits only
// feasible traffic (the validator agrees), covers every new kind, and the
// streaming generator replays it bit for bit.
func TestGenerateGoSync(t *testing.T) {
	cfg := GoSyncGenConfig()
	cfg.Ops = 4000
	ext := cfg.Extensions()
	want := Generate(rand.New(rand.NewSource(7)), cfg)
	if err := ValidateExt(want, ext); err != nil {
		t.Fatalf("generated gosync trace infeasible: %v", err)
	}
	seen := map[Kind]bool{}
	for _, op := range want {
		seen[op.Kind] = true
	}
	for _, k := range []Kind{ChanSend, ChanRecv, ChanClose, AtomicLoad, AtomicStore, AtomicRMW, OnceDo} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
	low := want.Desugar(ext)
	if err := Validate(low); err != nil {
		t.Fatalf("lowered generated trace infeasible: %v", err)
	}
	got, err := ReadAll(GenerateSource(rand.New(rand.NewSource(7)), cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("GenerateSource diverges from Generate on gosync config: %d vs %d ops", len(got), len(want))
	}

	// The channel mix: sends are a real share of the traffic, and most
	// receives take a sent value rather than the zero value of a closed
	// channel.
	for _, ops := range []int{2_000, 20_000} {
		cfg.Ops = ops
		var sends, recvs, zeros, chanOps int
		for seed := int64(0); seed < 10; seed++ {
			var chans chanTable
			for _, op := range Generate(rand.New(rand.NewSource(seed)), cfg) {
				if op.Kind != ChanSend && op.Kind != ChanRecv && op.Kind != ChanClose {
					continue
				}
				chanOps++
				s, _ := chans.get(op.M, ext).step(op)
				switch op.Kind {
				case ChanSend:
					sends++
				case ChanRecv:
					recvs++
					if s.what == chanZero {
						zeros++
					}
				}
			}
		}
		t.Logf("%d ops x 10 seeds: %d sends, %d receives (%d zero-value), %d channel ops",
			ops, sends, recvs, zeros, chanOps)
		if 10*sends < 3*chanOps || 100*zeros > 35*recvs {
			t.Errorf("%d ops: %d sends of %d channel ops, %d zero-value of %d receives; want sends >= 30%%, zero-value <= 35%%",
				ops, sends, chanOps, zeros, recvs)
		}
	}
}

// TestGenConfigRNGParity: the zero values of the appended GenConfig fields
// leave the RNG draw sequence untouched, so pre-v2 (seed, cfg) pairs keep
// reproducing their traces bit for bit.
func TestGenConfigRNGParity(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Ops = 2000
	a := Generate(rand.New(rand.NewSource(42)), cfg)
	for _, op := range a {
		if !op.Kind.IsCore() && op.Kind != VolatileRead && op.Kind != VolatileWrite && op.Kind != Barrier {
			t.Fatalf("default config generated a v2 kind: %v", op)
		}
	}
}

// TestTextRoundTripGoSync: the text codec's new mnemonics round-trip with
// and without the typed operand prefixes.
func TestTextRoundTripGoSync(t *testing.T) {
	tr := Trace{SendOp(0, 1), RecvOp(1, 1), CloseOp(0, 1), ALoad(0, 2), AStore(1, 2), ARMW(0, 2), OnceOp(1, 3)}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil || !reflect.DeepEqual(tr, back) {
		t.Fatalf("bare round trip: %v, %v", back, err)
	}
	prefixed := "send 0 c1\nrecv 1 c1\nclose 0 c1\naload 0 a2\nastore 1 a2\narmw 0 a2\nonce 1 o3\n"
	back, err = Decode(strings.NewReader(prefixed))
	if err != nil || !reflect.DeepEqual(tr, back) {
		t.Fatalf("prefixed round trip: %v, %v", back, err)
	}
}
