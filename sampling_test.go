package verifiedft

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/ingest"
	"repro/internal/sample"
	"repro/internal/trace"
)

// filterSampled is the restriction the sampling tier promises: the
// precise reports on sampled variables, re-numbered from zero.
func filterSampled(precise []Report, pol sample.Policy) []Report {
	var out []Report
	for _, r := range precise {
		if pol.Sampled(r.X) {
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

// sameReports compares report lists, treating nil and empty uniformly.
func sameReports(a, b []Report) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// samplingInputs are the traces the identity gates check: every
// conformance program under two schedules, and a generated trace with no
// locking and no joins, which has thousands of races to filter.
func samplingInputs(t *testing.T) map[string]Trace {
	t.Helper()
	inputs := map[string]Trace{}
	for _, prog := range conformance.Programs() {
		for _, seed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
			}
			inputs[fmt.Sprintf("%s seed %d", prog.Name, seed)] = tr
		}
	}
	cfg := trace.DefaultGenConfig()
	cfg.Ops, cfg.Threads, cfg.Vars, cfg.Locks = 20_000, 8, 256, 8
	cfg.LockedFraction, cfg.JoinWeight = 0, 0
	inputs["generated"] = trace.Generate(rand.New(rand.NewSource(20260808)), cfg)
	return inputs
}

// TestSamplingIdentityAtRateOne is the tentpole acceptance gate: at rate
// 1.0 the sampling tier is report-identical to the precise tier on every
// sampling input, for every detector variant.
func TestSamplingIdentityAtRateOne(t *testing.T) {
	for name, tr := range samplingInputs(t) {
		for _, variant := range Variants() {
			want, err := CheckTrace(tr, WithVariant(variant))
			if err != nil {
				t.Fatalf("%s/%s precise: %v", name, variant, err)
			}
			seq, err := CheckTrace(tr, WithVariant(variant), WithSampling(1))
			if err != nil {
				t.Fatalf("%s/%s sampled: %v", name, variant, err)
			}
			if !sameReports(want, seq) {
				t.Fatalf("%s/%s: rate 1.0 diverged from precise:\nwant %+v\ngot  %+v",
					name, variant, want, seq)
			}
		}
	}
}

// TestSamplingFilteredIdentity pins the below-1.0 contract, which is
// stronger than "no new false positives": the sampled reports are exactly
// the precise reports restricted to the sampled variables.
func TestSamplingFilteredIdentity(t *testing.T) {
	for name, tr := range samplingInputs(t) {
		for _, variant := range Variants() {
			precise, err := CheckTrace(tr, WithVariant(variant))
			if err != nil {
				t.Fatalf("%s/%s precise: %v", name, variant, err)
			}
			for _, rate := range []float64{0, 0.3, 0.7} {
				for _, seed := range []uint64{1, 7} {
					pol := sample.Policy{Rate: rate, Seed: seed}
					want := filterSampled(precise, pol)
					seq, err := CheckTrace(tr, WithVariant(variant),
						WithSampling(rate, WithSamplingSeed(seed)))
					if err != nil {
						t.Fatalf("%s/%s rate %v: %v", name, variant, rate, err)
					}
					if !sameReports(want, seq) {
						t.Fatalf("%s/%s rate %v seed %d: sampled != filtered precise:\nwant %+v\ngot  %+v",
							name, variant, rate, seed, want, seq)
					}
				}
			}
		}
	}
}

// TestSamplingSeededDeterminism pins that the decision is a pure function
// of (seed, variable id), and that seed 0 is the default seed on every
// surface: the same racy trace at the same rate and seed yields
// byte-identical, non-empty reports from two offline checks and from a
// vft-server upload of the same bytes, and for seed 0 also from an
// offline check and an upload that name no seed at all.
func TestSamplingSeededDeterminism(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Ops, gen.Threads, gen.Vars, gen.Locks = 20_000, 8, 256, 8
	gen.LockedFraction = 0
	tr := trace.Generate(rand.New(rand.NewSource(3)), gen)
	precise, err := CheckTrace(tr)
	if err != nil {
		t.Fatalf("precise: %v", err)
	}

	srv := ingest.New(ingest.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var body bytes.Buffer
	if err := trace.EncodeBinary(&body, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	upload := func(query string) []Report {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces?tenant=t&variant=vft-v2&"+query,
			"application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %s", resp.Status)
		}
		var res struct {
			SampleRate *float64        `json:"sample_rate"`
			Reports    []ingest.Report `json:"reports"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("upload response: %v", err)
		}
		if res.SampleRate == nil || *res.SampleRate != 0.5 {
			t.Fatalf("upload response sample_rate = %v, want 0.5", res.SampleRate)
		}
		server := make([]Report, len(res.Reports))
		for i, r := range res.Reports {
			server[i] = r.Core()
		}
		return server
	}
	check := func(opts ...SamplingOption) []Report {
		t.Helper()
		reports, err := CheckTrace(tr, WithSampling(0.5, opts...))
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		return reports
	}

	for _, seed := range []uint64{0, 9} {
		first := check(WithSamplingSeed(seed))
		if len(first) == 0 {
			t.Fatalf("seed %d: no sampled reports, so the comparisons below would prove nothing", seed)
		}
		if want := filterSampled(precise, sample.Policy{Rate: 0.5, Seed: seed}); !sameReports(want, first) {
			t.Fatalf("seed %d: sampled != filtered precise:\nwant %+v\ngot  %+v", seed, want, first)
		}
		others := map[string][]Report{
			"repeat": check(WithSamplingSeed(seed)),
			"server": upload(fmt.Sprintf("sample=0.5&sample_seed=%d", seed)),
		}
		if seed == 0 {
			others["no seed"] = check()
			others["server, no seed"] = upload("sample=0.5")
		}
		for name, got := range others {
			if !sameReports(first, got) {
				t.Errorf("seed %d, %s: diverged from the first check:\nwant %+v\ngot  %+v", seed, name, first, got)
			}
		}
	}
}

// TestSampledVariantSpelling pins that sampling is not a variant: a
// "sampled[:rate]" name is an unknown variant at New and CheckTrace, and
// the error names the five that exist.
func TestSampledVariantSpelling(t *testing.T) {
	tr := Trace{Write(0, 0)}
	for _, name := range []string{"sampled", "sampled:0.5", "sampled:1"} {
		_, err := CheckTrace(tr, WithVariant(name))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(Variants())) {
			t.Errorf("CheckTrace(WithVariant(%q)) = %v, want an error naming %v", name, err, Variants())
		}
		if _, err := New(name); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
}

// TestWithSamplingValidation pins the error paths at every entry point.
func TestWithSamplingValidation(t *testing.T) {
	tr := Trace{Write(0, 0)}
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := CheckTrace(tr, WithSampling(rate)); err == nil {
			t.Fatalf("CheckTrace accepted rate %v", rate)
		}
		if _, err := New(V2, WithSampling(rate)); err == nil {
			t.Fatalf("New accepted rate %v", rate)
		}
	}
	if d, err := New(V2, WithSampling(0.5)); err != nil || d == nil {
		t.Fatalf("New rejected a valid sampling rate: %v", err)
	}
}

// FuzzSamplingSoundness drives the restriction property from arbitrary
// bytes: for any feasible trace, variant, rate and seed, the sampled
// reports must equal the precise reports filtered to the sampled
// variables (re-numbered) — which subsumes both headline gates (identity
// at rate 1.0, and reported ⊆ precise below it).
func FuzzSamplingSoundness(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(255), uint64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(128), uint64(7))
	f.Add([]byte{0, 4, 0, 1, 0, 0, 1, 1, 0, 2, 5, 0}, uint8(2), uint8(0), uint64(42))
	f.Add([]byte{9, 9, 2, 2, 3, 3, 0, 0, 1, 1, 4, 4, 5, 5, 0, 1}, uint8(3), uint8(25), uint64(0))
	variants := Variants()
	f.Fuzz(func(t *testing.T, data []byte, pick, rateByte uint8, seed uint64) {
		tr := trace.FromBytes(data)
		variant := variants[int(pick)%len(variants)]
		rate := float64(rateByte) / 255
		pol := sample.Policy{Rate: rate, Seed: seed}

		precise, err := CheckTrace(tr, WithVariant(variant))
		if err != nil {
			t.Fatalf("precise: %v", err)
		}
		want := filterSampled(precise, pol)
		seq, err := CheckTrace(tr, WithVariant(variant),
			WithSampling(rate, WithSamplingSeed(seed)))
		if err != nil {
			t.Fatalf("sampled: %v", err)
		}
		if !sameReports(want, seq) {
			t.Fatalf("%s rate %v seed %d: sampled != filtered precise:\nwant %+v\ngot  %+v",
				variant, rate, seed, want, seq)
		}
	})
}

// benchRates are the rates the sampling benchmarks sweep.
var benchRates = []float64{1, 0.1, 0.01, 0.001}

// nopDetector is BenchmarkSampledAccess's floor: the same interface
// dispatch, no detection. Only Read is called.
type nopDetector struct{ Detector }

func (nopDetector) Read(Tid, VarID) {}

// BenchmarkSampledAccess is the cost of one steady-state Read through the
// online sampling tier over vft-v2 (a warm pass first caches every
// variable's decision), beside the same loop against nopDetector and
// against unsampled vft-v2.
func BenchmarkSampledAccess(b *testing.B) {
	const vars = 1 << 16
	run := func(b *testing.B, d Detector) {
		for x := VarID(0); x < vars; x++ {
			d.Read(0, x)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Read(0, VarID(i%vars))
		}
	}
	b.Run("rate=none", func(b *testing.B) { run(b, nopDetector{}) })
	v2 := func(name string, opts ...Option) {
		b.Run(name, func(b *testing.B) {
			d, err := New(V2, opts...)
			if err != nil {
				b.Fatal(err)
			}
			run(b, d)
		})
	}
	v2("rate=precise")
	for _, rate := range benchRates {
		v2(fmt.Sprintf("rate=%v", rate), WithSampling(rate))
	}
}

// BenchmarkCheckSampled is the offline check of a generated trace wide
// enough (many variables, few accesses each) that sampling thins the
// work, precise and at each rate; ns/traceop is per trace operation.
func BenchmarkCheckSampled(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Ops, cfg.Threads, cfg.Vars, cfg.Locks = 200_000, 8, 1<<15, 64
	tr := trace.Generate(rand.New(rand.NewSource(7)), cfg)
	run := func(name string, opts ...CheckOption) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CheckTrace(tr, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr)), "ns/traceop")
		})
	}
	run("rate=precise")
	for _, rate := range benchRates {
		run(fmt.Sprintf("rate=%v", rate), WithSampling(rate))
	}
}
