package verifiedft_test

import (
	"reflect"
	"testing"

	verifiedft "repro"
)

// The acceptance bar for the Go-synchronization lowering: every detector
// variant must report *identically* on a chan/atomic/once trace and its
// hand-desugared core equivalent — the core trace below is written by
// hand from DESIGN.md's lowering rules, not produced by calling Desugar.
// Full report equality (epochs, Seq, everything) is deliberate: it proves
// the lowering emits exactly the documented pseudo-lock protocol, not
// merely something race-equivalent.
func TestGoSyncLoweringEquivalence(t *testing.T) {
	type tc struct {
		name  string
		caps  map[verifiedft.LockID]int
		sugar verifiedft.Trace
		core  verifiedft.Trace
		// racyVars is the precise-detector verdict, checked once per case
		// under V2 so the fixtures themselves stay honest.
		racyVars map[verifiedft.VarID]bool
	}
	cases := []tc{
		{
			// An atomic store releases, load and RMW acquire: one pair of
			// core lock ops per atomic op, all on the location's
			// pseudo-lock.
			name: "atomics",
			sugar: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.AtomicStore(0, 5),
				verifiedft.AtomicLoad(1, 5),
				verifiedft.Read(1, 0), // ordered via a5: no race
				verifiedft.AtomicRMW(1, 5),
				verifiedft.Write(1, 1),
				verifiedft.Read(0, 1), // unordered: races
				verifiedft.Join(0, 1),
			},
			core: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Read(1, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Write(1, 1),
				verifiedft.Read(0, 1),
				verifiedft.Join(0, 1),
			},
			racyVars: map[verifiedft.VarID]bool{0: false, 1: true},
		},
		{
			// The first Once executor releases the once's pseudo-lock;
			// every later executor acquires it.
			name: "once",
			sugar: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.OnceDo(0, 2),
				verifiedft.OnceDo(1, 2),
				verifiedft.Read(1, 0), // ordered via the once
				verifiedft.Join(0, 1),
			},
			core: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Read(1, 0),
				verifiedft.Join(0, 1),
			},
			racyVars: map[verifiedft.VarID]bool{0: false},
		},
		{
			// Buffered channel, capacity 2: the k-th send and the k-th
			// receive pair on slot lock k mod C, so "recv of the k-th
			// value happens-after the k-th send" and nothing more.
			name: "chan-buffered",
			caps: map[verifiedft.LockID]int{0: 2},
			sugar: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.ChanSend(0, 0),
				verifiedft.ChanSend(0, 0),
				verifiedft.ChanRecv(1, 0),
				verifiedft.Read(1, 0), // ordered by slot 0
				verifiedft.Write(1, 1),
				verifiedft.Read(0, 1), // unordered: races
				verifiedft.ChanRecv(1, 0),
				verifiedft.Join(0, 1),
			},
			core: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0), // send -> slot 0
				verifiedft.Acquire(0, 1), verifiedft.Release(0, 1), // send -> slot 1
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0), // recv <- slot 0
				verifiedft.Read(1, 0),
				verifiedft.Write(1, 1),
				verifiedft.Read(0, 1),
				verifiedft.Acquire(1, 1), verifiedft.Release(1, 1), // recv <- slot 1
				verifiedft.Join(0, 1),
			},
			racyVars: map[verifiedft.VarID]bool{0: false, 1: true},
		},
		{
			// Unbuffered channel: the send blocks, and the whole
			// rendezvous — two rounds of sender-then-receiver pairs on
			// one lock, ordering the parties both ways — is emitted at
			// the receive.
			name: "chan-unbuffered",
			sugar: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(1, 0),
				verifiedft.ChanSend(1, 0),
				verifiedft.ChanRecv(0, 0),
				verifiedft.Read(0, 0), // ordered by the rendezvous
				verifiedft.Join(0, 1),
			},
			core: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(1, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0),
				verifiedft.Read(0, 0),
				verifiedft.Join(0, 1),
			},
			racyVars: map[verifiedft.VarID]bool{0: false},
		},
		{
			// Close releases the channel's close lock; a receive on the
			// closed-and-drained channel acquires it, ordering the
			// zero-value receive after the close.
			name: "chan-close",
			sugar: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.ChanClose(0, 0),
				verifiedft.ChanRecv(1, 0),
				verifiedft.Read(1, 0), // ordered by the close
				verifiedft.Join(0, 1),
			},
			core: verifiedft.Trace{
				verifiedft.Fork(0, 1),
				verifiedft.Write(0, 0),
				verifiedft.Acquire(0, 0), verifiedft.Release(0, 0),
				verifiedft.Acquire(1, 0), verifiedft.Release(1, 0),
				verifiedft.Read(1, 0),
				verifiedft.Join(0, 1),
			},
			racyVars: map[verifiedft.VarID]bool{0: false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, variant := range verifiedft.Variants() {
				sugarOpts := []verifiedft.CheckOption{verifiedft.WithVariant(variant)}
				if tc.caps != nil {
					sugarOpts = append(sugarOpts, verifiedft.WithChanCapacities(tc.caps))
				}
				got, err := verifiedft.CheckTrace(tc.sugar, sugarOpts...)
				if err != nil {
					t.Fatalf("%s sugar: %v", variant, err)
				}
				want, err := verifiedft.CheckTrace(tc.core, verifiedft.WithVariant(variant))
				if err != nil {
					t.Fatalf("%s core: %v", variant, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: lowered reports diverge from hand-desugared:\n%v\nvs\n%v",
						variant, got, want)
				}
			}
			// The fixture means what its comments claim (precise verdict).
			reports, err := verifiedft.CheckTrace(tc.sugar, append(
				[]verifiedft.CheckOption{verifiedft.WithVariant(verifiedft.V2)},
				optCaps(tc.caps)...)...)
			if err != nil {
				t.Fatal(err)
			}
			racy := map[verifiedft.VarID]bool{}
			for _, r := range reports {
				racy[r.X] = true
			}
			for x, want := range tc.racyVars {
				if racy[x] != want {
					t.Fatalf("v2 verdict on x%d = %v, want %v (reports %v)", x, racy[x], want, reports)
				}
			}
		})
	}
}

func optCaps(caps map[verifiedft.LockID]int) []verifiedft.CheckOption {
	if caps == nil {
		return nil
	}
	return []verifiedft.CheckOption{verifiedft.WithChanCapacities(caps)}
}

// The accepted-and-ignored WithParallelism changes nothing on a
// channel/atomic/once trace either, for any variant, and the fixture races
// under all of them (the vft-server leg of the Go-sync acceptance criterion
// lives in internal/ingest's e2e suite).
func TestGoSyncParallelParity(t *testing.T) {
	caps := map[verifiedft.LockID]int{0: 1}
	tr := verifiedft.Trace{
		verifiedft.Fork(0, 1),
		verifiedft.Fork(0, 2),
		verifiedft.AtomicStore(0, 3),
		verifiedft.ChanSend(0, 0),
		verifiedft.ChanRecv(1, 0),
		verifiedft.AtomicLoad(1, 3),
		verifiedft.Write(1, 0),
		verifiedft.Write(2, 0), // write-write race with t1
		verifiedft.OnceDo(1, 1),
		verifiedft.OnceDo(2, 1),
		verifiedft.Write(2, 1),
		verifiedft.Read(0, 1), // races with t2
		verifiedft.ChanClose(0, 0),
		verifiedft.ChanRecv(2, 0),
		verifiedft.Join(0, 1),
		verifiedft.Join(0, 2),
	}
	for _, variant := range verifiedft.Variants() {
		seq, err := verifiedft.CheckTrace(tr,
			verifiedft.WithVariant(variant), verifiedft.WithChanCapacities(caps))
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		par, err := verifiedft.CheckTrace(tr,
			verifiedft.WithVariant(variant), verifiedft.WithChanCapacities(caps),
			verifiedft.WithParallelism(4))
		if err != nil {
			t.Fatalf("%s WithParallelism(4): %v", variant, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: WithParallelism(4) changed the reports:\n%v\nvs\n%v", variant, seq, par)
		}
		if len(seq) == 0 {
			t.Fatalf("%s: fixture should race", variant)
		}
	}
}
