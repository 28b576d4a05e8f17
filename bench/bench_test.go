package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// testOps is the size of the generated traces the tests check.
const testOps = 30_000

type generator func(seed uint64, plant bool) (trace.Trace, genInfo)

var generators = map[string]generator{
	"accessdense": func(seed uint64, plant bool) (trace.Trace, genInfo) {
		return collect(func(s func(trace.Op)) genInfo { return genBlocks(seed, testOps, plant, accessDenseShape, s) })
	},
	"mixed": func(seed uint64, plant bool) (trace.Trace, genInfo) {
		return collect(func(s func(trace.Op)) genInfo { return genBlocks(seed, testOps, plant, mixedShape, s) })
	},
	"syncdense": func(seed uint64, plant bool) (trace.Trace, genInfo) {
		return collect(func(s func(trace.Op)) genInfo { return genSyncDense(seed, testOps, plant, s) })
	},
}

func digest(t *testing.T, tr trace.Trace) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := verifiedft.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for name, gen := range generators {
		a, _ := gen(7, true)
		b, _ := gen(7, true)
		c, _ := gen(8, true)
		if digest(t, a) != digest(t, b) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if digest(t, a) == digest(t, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same bytes", name)
		}
		if n := len(a); n < testOps*9/10 || n > testOps*11/10 {
			t.Errorf("%s: asked for %d ops, got %d", name, testOps, n)
		}
	}
}

func TestServerPoolIsDeterministicAndMixed(t *testing.T) {
	a, err := genServerPool(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genServerPool(3, 10)
	c, _ := genServerPool(4, 10)
	sum := func(pool []upload) [32]byte {
		h := sha256.New()
		for _, u := range pool {
			h.Write(u.body)
		}
		return [32]byte(h.Sum(nil))
	}
	if sum(a) != sum(b) || sum(a) == sum(c) {
		t.Error("pool bytes must be a function of the seed, and differ across seeds")
	}
	encodings, planted, tenants := map[string]int{}, 0, map[string]bool{}
	for _, u := range a {
		encodings[u.encoding]++
		tenants[u.tenant] = true
		if len(u.planted) > 0 {
			planted++
		}
		reports, err := verifiedft.CheckReader(bytes.NewReader(u.body))
		if err != nil {
			t.Fatalf("%s upload does not check: %v", u.encoding, err)
		}
		if err := checkVerdict(reports, u.planted); err != nil {
			t.Errorf("%s upload: %v", u.encoding, err)
		}
	}
	if len(a) != serverPoolSize || len(tenants) != 8 || planted != 6 ||
		encodings[encBinary] != 39 || encodings[encGzip] != 20 || encodings[encText] != 5 {
		t.Errorf("pool mix: %d uploads, %d tenants, %d planted, encodings %v", len(a), len(tenants), planted, encodings)
	}
}

func TestGeneratedTracesAreFeasibleWithExactlyThePlantedRaces(t *testing.T) {
	for name, gen := range generators {
		for _, plant := range []bool{true, false} {
			tr, info := gen(11, plant)
			if len(info.chanCaps) == 0 {
				if err := verifiedft.ValidateTrace(tr); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else if err := trace.ValidateExt(tr, &trace.Extensions{ChanCapacity: info.chanCaps}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := map[bool]int{true: numPlanted, false: 0}[plant]; len(info.planted) != want {
				t.Fatalf("%s plant=%v: %d planted variables, want %d", name, plant, len(info.planted), want)
			}
			in := offlineInput{info: info}
			for _, opts := range [][]verifiedft.CheckOption{nil, {verifiedft.WithParallelism(2)}} {
				reports, err := verifiedft.CheckTrace(tr, append(in.checkOptions(), opts...)...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := checkVerdict(reports, info.planted); err != nil {
					t.Errorf("%s plant=%v: %v", name, plant, err)
				}
			}
		}
	}
}

func TestSyncDenseCarriesGoSyncKinds(t *testing.T) {
	tr, _ := generators["syncdense"](5, true)
	gosync, sync := 0, 0
	for _, op := range tr {
		switch {
		case op.Kind >= trace.ChanSend:
			gosync++
		case !op.IsAccess():
			sync++
		}
	}
	if share := float64(gosync) / float64(len(tr)); share < 0.07 || share > 0.13 {
		t.Errorf("Go-sync kinds are %.1f%% of ops, want about 10%%", 100*share)
	}
	if share := float64(sync+gosync) / float64(len(tr)); share < 0.6 {
		t.Errorf("sync ops are %.0f%% of ops, want a sync-dense trace", 100*share)
	}
}

func TestKernelsReportExactlyThePlantedRaces(t *testing.T) {
	e := &env{seed: 9, procs: 1}
	for _, w := range []*onlineWorkload{
		{name: "online-readshared", k: readSharedKernel, size: 2},
		{name: "online-syncdense", k: syncDenseKernel, size: 5000},
	} {
		for _, plant := range []bool{true, false} {
			if _, ec, _, err := w.runChecked(e, plant); err != nil {
				t.Errorf("%s plant=%v: %v", w.name, plant, err)
			} else if ec.total() == 0 {
				t.Errorf("%s: no events counted", w.name)
			}
		}
		// The counts the kernel claims are the events the detector saw.
		sr := core.NewRecorder()
		ec, _, err := w.k.run(verifiedft.NewRuntime(sr), e.seed, w.size, true)
		if err != nil || uint64(sr.Len()) != ec.total() {
			t.Errorf("%s: kernel counted %d events, detector saw %d (%v)", w.name, ec.total(), sr.Len(), err)
		}
	}
}

func TestCheckVerdict(t *testing.T) {
	rep := func(xs ...verifiedft.VarID) (rs []verifiedft.Report) {
		for _, x := range xs {
			rs = append(rs, verifiedft.Report{X: x})
		}
		return rs
	}
	planted := []verifiedft.VarID{4, 5}
	if err := checkVerdict(rep(5, 4, 4), planted); err != nil {
		t.Error(err)
	}
	if checkVerdict(rep(4), planted) == nil {
		t.Error("a missed planted race must fail")
	}
	if checkVerdict(rep(4, 5, 6), planted) == nil {
		t.Error("a spurious race must fail")
	}
	if checkVerdict(nil, nil) != nil || checkVerdict(rep(1), nil) == nil {
		t.Error("the planted-free answer is the empty set")
	}
}

func TestPoolOutputCheck(t *testing.T) {
	w := &vftgoWorkload{wantOut: "total 256000 jobs 512"}
	good := "total 256000 jobs 512\n"
	for k := 0; k < numPlanted; k++ {
		good += "race on planted" + string(rune('0'+k)) + " main.go:39:2\n"
	}
	if err := w.checkOutput(good); err != nil {
		t.Error(err)
	}
	if w.checkOutput(good+"race on bank main.go:30:2\n") == nil {
		t.Error("a spurious race line must fail")
	}
	if w.checkOutput("total 256000 jobs 512\n") == nil {
		t.Error("missing race lines must fail")
	}
	if w.checkOutput("total 1 jobs 512\n") == nil {
		t.Error("a wrong program result must fail")
	}
}

func TestQuantilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(xs)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd-length median")
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 of ten samples = %v, want the maximum", p)
	}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("nearest-rank p50 = %v, want 5", p)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if p := percentile(hundred, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
}

func TestHostSpeedCalibration(t *testing.T) {
	var inside time.Duration
	speed := childProbe.speedAround(func() { inside = probeOnce() })
	if speed < 0.05 || speed > 20 {
		t.Errorf("host speed %v times nominal: the reference loop is mis-sized", speed)
	}
	// A reference loop timed as an operation is calibrated to about its
	// nominal duration, whatever the host's speed (generous: CI is noisy).
	if cal := time.Duration(float64(inside) * speed); cal < probeNominal/2 || cal > 2*probeNominal {
		t.Errorf("reference loop calibrated to %v, nominal %v", cal, probeNominal)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	// check(10) ⊃ lower(7) ⊃ validate(4) ⊃ decode(3); a second decode root.
	spans := []span{
		{ID: 0, Parent: -1, Name: "check", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "lower", Start: 0, End: 7 * ms},
		{ID: 2, Parent: 1, Name: "validate", Start: 0, End: 4 * ms},
		{ID: 3, Parent: 2, Name: "decode", Start: 0, End: 3 * ms},
		{ID: 4, Parent: -1, Name: "decode", Start: 20 * ms, End: 22 * ms},
	}
	want := map[string]time.Duration{"check": 3 * time.Millisecond, "lower": 3 * time.Millisecond,
		"validate": time.Millisecond, "decode": 5 * time.Millisecond}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	rec := newSpanRecorder()
	root := rec.begin("a", -1, 0)
	child := rec.add("b", root, 0, rec.spans[root].Start, time.Microsecond)
	rec.end(root)
	if rec.spans[child].Parent != root || rec.spans[root].End < rec.spans[root].Start {
		t.Errorf("recorder spans: %+v", rec.spans)
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchWorkload  `json:"workloads"`
	EndToEnd   []benchE2EMetric `json:"end_to_end"`
	PerLayer   []benchMetric    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2EMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specAsBenchmarkFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		f.Workloads = append(f.Workloads, benchWorkload(w))
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchE2EMetric(m))
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{m.Name, m.Unit, m.Better})
	}
	return f
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := specAsBenchmarkFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json and spec.go disagree; run `go test -run BenchmarkJSON -update` in bench/")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

func TestVocabularyMeetsTheDriverContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range allWorkloads() {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
}
