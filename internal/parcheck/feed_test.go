package parcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/trace"
)

// pulled is the reference the feed must reproduce: the bytes decoded
// whole (trace.ReadAll), cut at the operation budget, then checked by the
// pull pipeline of separate stages — ValidateSource, DesugarSource — into
// Check. An error in checking the first limit ops comes first; then the
// decoder's, if it stopped within them or at the next op; then the
// budget's, if an op past it decoded. It also says whether the error is
// the decoder's own.
func pulled(data []byte, ext *trace.Extensions, limit int, opts Options) ([]core.Report, int, bool, error) {
	tr, decErr := trace.ReadAll(trace.NewBinaryDecoder(bytes.NewReader(data)))
	var over error
	if limit > 0 && len(tr) > limit {
		tr, decErr, over = tr[:limit], nil, &trace.TooLongError{Limit: limit}
	}
	reports, err := Check(trace.DesugarSource(trace.ValidateSource(tr.Source(), ext), ext), opts)
	switch {
	case err != nil:
		return nil, 0, false, err
	case decErr != nil:
		return nil, 0, true, decErr
	case over != nil:
		return nil, 0, false, over
	}
	return reports, len(tr), false, nil
}

// fused is the product path on the same bytes: the sniffing decoder, as
// CheckReader has it, into CheckSource under the same budget. The error is
// the decoder's own when it is the one that ended the decoder's stream,
// which is how goinstr.Check tells a bad capture from a bad trace.
func fused(t testing.TB, data []byte, ext *trace.Extensions, limit int, opts Options) ([]core.Report, int, bool, error) {
	src := mustDecoder(t, data)
	opts.MaxOps = limit
	reports, n, err := CheckSource(src, ext, opts)
	dec, ok := src.(*trace.BinaryDecoder)
	return reports, n, ok && err != nil && err == dec.Err(), err
}

// TestMaxOps: under a budget of n operations CheckSource decides as a
// consumer pulling one op at a time would, whether the budget cuts a batch
// of the binary decoder's mid-way or the text decoder yields one op at a
// time: an op among the first n that fails returns its own error; a
// decodable n+1-th op returns *trace.TooLongError, even an infeasible one;
// a decode error at n+1 returns that error, and the stream's end there
// ends the check cleanly with a count of n.
func TestMaxOps(t *testing.T) {
	base := trace.Trace{trace.ForkOp(0, 1), trace.Wr(0, 300), trace.Rd(1, 2), trace.Wr(1, 3), trace.JoinOp(0, 1)}
	bad := trace.Rel(0, 9) // infeasible wherever it stands: thread 0 holds no lock
	long := stripedTrace(8, 4, 100)
	ops := func(tr trace.Trace, more ...trace.Op) trace.Trace {
		return append(append(trace.Trace{}, tr...), more...)
	}
	for _, tc := range []struct {
		name  string
		tr    trace.Trace
		torn  bool // the last op's encoding is cut short: a decode error
		limit int
		want  string // "ok", "too long", "infeasible #i" or "decode"
	}{
		{"no budget", base, false, 0, "ok"},
		{"exactly n", base, false, 5, "ok"},
		{"under budget", base, false, 9, "ok"},
		{"n+1", base, false, 4, "too long"},
		{"n+1 infeasible", ops(base[:4], bad), false, 4, "too long"},
		{"infeasible within", ops(base[:2], bad, base[2]), false, 4, "infeasible #2"},
		{"infeasible at n", ops(base[:3], bad, base[3]), false, 4, "infeasible #3"},
		{"decode error at n+1", base, true, 4, "decode"},
		{"decode error within", base, true, 9, "decode"},
		{"later batch, exactly n", long, false, len(long), "ok"},
		{"later batch, n+1", long, false, 700, "too long"},
		{"later batch, infeasible at n", ops(long[:699], bad), false, 700, "infeasible #699"},
		{"later batch, n+1 infeasible", ops(long[:700], bad), false, 700, "too long"},
		{"later batch, decode error at n+1", long[:701], true, 700, "decode"},
	} {
		var bin, text bytes.Buffer
		if err := trace.EncodeBinary(&bin, tc.tr); err != nil {
			t.Fatal(err)
		}
		whole := tc.tr
		if tc.torn {
			bin.Truncate(bin.Len() - 1)
			whole = tc.tr[:len(tc.tr)-1]
		}
		if err := trace.Encode(&text, whole); err != nil {
			t.Fatal(err)
		}
		if tc.torn {
			text.WriteString("bogus\n")
		}
		inputs := map[string][]byte{"binary": bin.Bytes(), "text": text.Bytes()}
		for enc, data := range inputs {
			reports, n, err := CheckSource(mustDecoder(t, data), nil, Options{MaxOps: tc.limit})
			var got string
			var ie *trace.InfeasibleError
			var tl *trace.TooLongError
			switch {
			case err == nil:
				got = "ok"
				if n != len(tc.tr) || len(reports) != 0 {
					t.Errorf("%s, %s: %d ops, reports %v; want %d ops and none", tc.name, enc, n, reports, len(tc.tr))
				}
			case errors.As(err, &tl) && tl.Limit == tc.limit:
				got = "too long"
			case errors.As(err, &ie):
				got = fmt.Sprintf("infeasible #%d", ie.Index)
			default:
				_, derr := trace.ReadAll(mustDecoder(t, data))
				if err.Error() == fmt.Sprint(derr) {
					got = "decode"
				}
			}
			if got != tc.want || err != nil && (n != 0 || reports != nil) {
				t.Errorf("%s, %s: %d ops, %v; want %s", tc.name, enc, n, err, tc.want)
			}
		}
	}
}

// mustDecoder is trace.NewDecoder over data.
func mustDecoder(t testing.TB, data []byte) trace.Source {
	src, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// encodeRecords is tr in the binary format, without the header.
func encodeRecords(t testing.TB, tr trace.Trace) []byte {
	var b bytes.Buffer
	if err := trace.EncodeBinary(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()[len("VFTb\x02"):]
}

// FuzzFeedMatchesPulled runs the feed on streams no repair has made
// feasible: a format-v2 header, then whatever bytes the fuzzer brings —
// Go-sync kinds, ops that break §2 or channel discipline, ids past the
// dense windows or past int32, records cut short. The one switch that
// validates, lowers and renumbers must agree with the pull pipeline on
// every one of them: the same reports, the same error (text and
// position), the same operation count, and the decoder's own error where
// the pipeline's is the decoder's, so a caller can still tell a decode
// error from a check error. knobs picks an operation budget (MaxOps, as
// vft-server sets one) and a report cap. The feed runs
// on a fresh state and again on one the hostile Go-sync trace has
// dirtied, and the two must agree.
func FuzzFeedMatchesPulled(f *testing.F) {
	cfg := trace.GoSyncGenConfig()
	cfg.Ops = 120
	for seed := int64(0); seed < 4; seed++ {
		f.Add(encodeRecords(f, trace.Generate(rand.New(rand.NewSource(seed)), cfg)), uint8(seed))
	}
	feasible := encodeRecords(f, trace.Generate(rand.New(rand.NewSource(9)), cfg))
	f.Add(feasible[:len(feasible)-1], uint8(0))    // truncated inside the last record
	f.Add(feasible[:len(feasible)/2], uint8(0x41)) // cut, under a budget and a cap
	f.Add(encodeRecords(f, trace.Trace{
		trace.ForkOp(0, 65000), trace.Wr(65000, 2000000000), trace.Wr(0, 2000000000), // huge ids
		trace.Acq(0, 16000000), trace.Rel(0, 16000000),
		trace.SendOp(0, 1<<30), trace.RecvOp(65000, 1<<30), trace.ALoad(0, 1<<30),
	}), uint8(0))
	f.Add(encodeRecords(f, trace.Trace{
		trace.ForkOp(0, 1), trace.Wr(0, 3), trace.Wr(1, 3), // a race, then
		trace.SendOp(1, 0), trace.Wr(1, 4), // a blocked sender acts
	}), uint8(0))
	f.Add(encodeRecords(f, trace.Trace{trace.ForkOp(0, 70000)}), uint8(0))             // tid past MaxTid
	f.Add(append(encodeRecords(f, trace.Trace{trace.Wr(0, 1)}), 3, 0, 0x80), uint8(0)) // bad operand varint
	f.Add(append(encodeRecords(f, trace.Trace{trace.Wr(0, 1)}),
		7, byte(trace.Write), 0, 0x81, 0x80, 0x80, 0x80, 0x10), uint8(0)) // operand past int32
	f.Add(append(encodeRecords(f, trace.Trace{trace.Wr(0, 1)}), 2, 0xff, 0), uint8(0))       // unknown kind
	f.Add(append(encodeRecords(f, trace.Trace{trace.Wr(0, 1)}), 0x83, 0, 0, 0, 0), uint8(0)) // long length
	ext := cfg.Extensions()
	f.Fuzz(func(t *testing.T, records []byte, knobs uint8) {
		data := append([]byte("VFTb\x02"), records...)
		limit := []int{0, 1, 7, 64}[knobs&3]
		opts := Options{MaxReportsPerVar: int(knobs>>2) % 3}
		var want, got, again outcome
		onState(new(checkState), func() { want = checkBytes(t, data, ext, limit, opts, true) })
		onState(new(checkState), func() { got = checkBytes(t, data, ext, limit, opts, false) })
		if !reflect.DeepEqual(got.reports, want.reports) || got.err != want.err {
			t.Fatalf("feed: %v, %v\npulled: %v, %v", got.reports, got.err, want.reports, want.err)
		}
		if got.n != want.n || got.decodeErr != want.decodeErr {
			t.Fatalf("feed: %d ops, decoder's error %v; pulled: %d ops, decoder's error %v", got.n, got.decodeErr, want.n, want.decodeErr)
		}
		onState(dirtied(t), func() { again = checkBytes(t, data, ext, limit, opts, false) })
		requireSameOutcome(t, "feed", got, again)
	})
}

// stripedGoSync is a race-free raw trace in the shape of the benchmark's
// sync-dense input, Go-sync kinds included: workers forked by main, each
// round taking one of stripes locks around a read and a write of a
// variable that lock guards, an atomic op every fourth round and a
// send-receive pair on a buffered channel every tenth — about 10% of the
// ops — then all joined. The channels' capacities are in the Extensions.
func stripedGoSync(threads, stripes, rounds int) (trace.Trace, *trace.Extensions) {
	var tr trace.Trace
	for u := 1; u < threads; u++ {
		tr = append(tr, trace.ForkOp(0, epoch.Tid(u)))
	}
	for r := 0; r < rounds; r++ {
		for u := 1; u < threads; u++ {
			t, m := epoch.Tid(u), (u*7+r)%stripes
			x := trace.Var(m + stripes*(r%4))
			tr = append(tr, trace.Acq(t, trace.Lock(m)), trace.Rd(t, x), trace.Wr(t, x), trace.Rel(t, trace.Lock(m)))
			if (r+u)%4 == 0 {
				a := trace.Var((r + u) % 8)
				tr = append(tr, []trace.Op{trace.ALoad(t, a), trace.AStore(t, a), trace.ARMW(t, a)}[r%3])
			}
			if (r+u)%10 == 0 {
				c := trace.Lock(u % 4)
				tr = append(tr, trace.SendOp(t, c), trace.RecvOp(t, c))
			}
		}
	}
	for u := 1; u < threads; u++ {
		tr = append(tr, trace.JoinOp(0, epoch.Tid(u)))
	}
	return tr, &trace.Extensions{ChanCapacity: map[trace.Lock]int{0: 4, 1: 4, 2: 4, 3: 4}}
}

// BenchmarkCheckReader is the offline path from bytes to verdict on a
// binary-encoded striped trace with Go-sync kinds, in ns per raw op: feed
// is what CheckReader runs (the batch decoder into the one switch), pulled
// the reference — the trace decoded whole, then the pull pipeline of
// separate stages the one switch replaced.
func BenchmarkCheckReader(b *testing.B) {
	tr, ext := stripedGoSync(32, 64, 600)
	if err := trace.ValidateExt(tr, ext); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, arm := range []struct {
		name  string
		check func() ([]core.Report, error)
	}{
		{"feed", func() ([]core.Report, error) { r, _, _, err := fused(b, data, ext, 0, Options{}); return r, err }},
		{"pulled", func() ([]core.Report, error) { r, _, _, err := pulled(data, ext, 0, Options{}); return r, err }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if reports, err := arm.check(); err != nil || len(reports) != 0 {
					b.Fatal(fmt.Sprint(reports, err))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/raw-op")
		})
	}
}
