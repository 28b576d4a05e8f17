package parcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/trace"
)

// pulled is the reference the feed must reproduce: the pull pipeline of
// separate stages — decoder, ValidateSource, DesugarSource — into Check,
// with a Counter over the (limited) decoder.
func pulled(data []byte, ext *trace.Extensions, limit int, opts Options) ([]core.Report, *trace.Counter, error) {
	c := &trace.Counter{Src: trace.Limit(trace.NewBinaryDecoder(bytes.NewReader(data)), limit)}
	reports, err := Check(trace.DesugarSource(trace.ValidateSource(c, ext), ext), opts)
	return reports, c, err
}

// fused is the product path on the same bytes: the sniffing decoder, as
// CheckReader has it, under the same Limit and Counter, into CheckSource.
func fused(t testing.TB, data []byte, ext *trace.Extensions, limit int, opts Options) ([]core.Report, *trace.Counter, error) {
	src, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	c := &trace.Counter{Src: trace.Limit(src, limit)}
	reports, err := CheckSource(c, ext, opts)
	return reports, c, err
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
// position), and the same Counter — N and Err — so a caller can still
// tell a decode error from a check error. knobs picks an operation budget
// (trace.Limit, as vft-server sets one) and a report cap. The feed runs
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
		if got.n != want.n || got.counterErr != want.counterErr {
			t.Fatalf("feed's Counter N=%d Err=%v, pulled's N=%d Err=%v", got.n, got.counterErr, want.n, want.counterErr)
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
// the pull pipeline of separate stages it replaced, kept as the reference.
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
		{"feed", func() ([]core.Report, error) { r, _, err := fused(b, data, ext, 0, Options{}); return r, err }},
		{"pulled", func() ([]core.Report, error) { r, _, err := pulled(data, ext, 0, Options{}); return r, err }},
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
