package sample

import (
	"math"
	"sync"
	"testing"

	"repro/internal/trace"
)

func TestPolicyEndpoints(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		never := Policy{Rate: 0, Seed: seed}
		always := Policy{Rate: 1, Seed: seed}
		for x := trace.Var(0); x < 4096; x++ {
			if never.Sampled(x) {
				t.Fatalf("rate 0 sampled var %d (seed %d)", x, seed)
			}
			if !always.Sampled(x) {
				t.Fatalf("rate 1 suppressed var %d (seed %d)", x, seed)
			}
		}
	}
}

func TestPolicyRateApproximation(t *testing.T) {
	const n = 1 << 17
	for _, rate := range []float64{0.01, 0.1, 0.5, 0.9} {
		pol := Policy{Rate: rate, Seed: DefaultSeed}
		hits := 0
		for x := trace.Var(0); x < n; x++ {
			if pol.Sampled(x) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-rate) > 0.01 {
			t.Fatalf("rate %v: sampled fraction %v over %d vars", rate, got, n)
		}
	}
}

func TestPolicySeedSensitivity(t *testing.T) {
	a := Policy{Rate: 0.5, Seed: 1}
	b := Policy{Rate: 0.5, Seed: 2}
	differ := 0
	for x := trace.Var(0); x < 4096; x++ {
		if a.Sampled(x) != b.Sampled(x) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("seeds 1 and 2 selected identical sample sets over 4096 vars")
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, rate := range []float64{0, 0.5, 1} {
		if err := (Policy{Rate: rate}).Validate(); err != nil {
			t.Fatalf("valid rate %v rejected: %v", rate, err)
		}
	}
	for _, rate := range []float64{-0.001, 1.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Policy{Rate: rate}).Validate(); err == nil {
			t.Fatalf("invalid rate %v accepted", rate)
		}
	}
}

func TestParseRate(t *testing.T) {
	for spelling, want := range map[string]float64{"0": 0, "0.01": 0.01, "1": 1, "1.0": 1} {
		got, err := ParseRate(spelling)
		if err != nil || got != want {
			t.Fatalf("ParseRate(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	for _, spelling := range []string{"", "x", "2", "-1", "NaN"} {
		if _, err := ParseRate(spelling); err == nil {
			t.Fatalf("ParseRate(%q) accepted", spelling)
		}
	}
}

func TestParseVariant(t *testing.T) {
	base, pol, err := ParseVariant("sampled")
	if err != nil || base != "vft-v2" || pol == nil || pol.Rate != DefaultRate || pol.Seed != DefaultSeed {
		t.Fatalf("ParseVariant(sampled) = %q, %+v, %v", base, pol, err)
	}
	base, pol, err = ParseVariant("sampled:0.1")
	if err != nil || base != "vft-v2" || pol == nil || pol.Rate != 0.1 {
		t.Fatalf("ParseVariant(sampled:0.1) = %q, %+v, %v", base, pol, err)
	}
	base, pol, err = ParseVariant("vft-v1")
	if err != nil || base != "vft-v1" || pol != nil {
		t.Fatalf("ParseVariant(vft-v1) = %q, %+v, %v", base, pol, err)
	}
	for _, bad := range []string{"sampled:2", "sampled:", "sampled:x"} {
		if _, _, err := ParseVariant(bad); err == nil {
			t.Fatalf("ParseVariant(%q) accepted", bad)
		}
	}
}

func TestSampledID(t *testing.T) {
	if _, ok := SampledID(Undecided); ok {
		t.Fatal("Undecided decoded as sampled")
	}
	if _, ok := SampledID(Suppressed); ok {
		t.Fatal("Suppressed decoded as sampled")
	}
	if id, ok := SampledID(firstID); !ok || id != 0 {
		t.Fatalf("SampledID(firstID) = %d, %v", id, ok)
	}
	if id, ok := SampledID(firstID + 7); !ok || id != 7 {
		t.Fatalf("SampledID(firstID+7) = %d, %v", id, ok)
	}
}

func TestWordsDecisionsMatchPolicy(t *testing.T) {
	pol := Policy{Rate: 0.5, Seed: 3}
	w := NewWords(pol)
	const n = 1000
	for x := trace.Var(0); x < n; x++ {
		word := w.Word(x)
		id, ok := SampledID(word)
		if ok != pol.Sampled(x) {
			t.Fatalf("var %d: word says sampled=%v, policy says %v", x, ok, pol.Sampled(x))
		}
		if ok && w.OriginalVar(id) != x {
			t.Fatalf("var %d: inner id %d maps back to %d", x, id, w.OriginalVar(id))
		}
		if again := w.Word(x); again != word {
			t.Fatalf("var %d: word changed on second read (%d -> %d)", x, word, again)
		}
	}
	sampled, suppressed := w.Counts()
	if sampled+suppressed != n {
		t.Fatalf("Counts() = %d + %d, want %d decided", sampled, suppressed, n)
	}
	if w.Bytes() == 0 {
		t.Fatal("Bytes() = 0 after deciding vars")
	}
}

func TestWordsDenseIDsInTouchOrder(t *testing.T) {
	w := NewWords(Policy{Rate: 1, Seed: 1})
	touch := []trace.Var{9, 2, 77, 0}
	for i, x := range touch {
		id, ok := SampledID(w.Word(x))
		if !ok || id != i {
			t.Fatalf("touch #%d (var %d): inner id %d, sampled %v", i, x, id, ok)
		}
	}
}

// TestWordsConcurrent hammers overlapping first touches from many
// goroutines under the race detector: every variable must settle on the
// pure policy decision, and the dense id remap must stay a bijection.
func TestWordsConcurrent(t *testing.T) {
	pol := Policy{Rate: 0.5, Seed: 7}
	w := NewWords(pol)
	const vars, workers = 2048, 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < vars; i++ {
				x := trace.Var((i + g*37) % vars)
				if _, ok := SampledID(w.Word(x)); ok != pol.Sampled(x) {
					t.Errorf("var %d: sampled=%v, policy says %v", x, ok, pol.Sampled(x))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[trace.Var]bool{}
	for x := trace.Var(0); x < vars; x++ {
		if id, ok := SampledID(w.Word(x)); ok {
			orig := w.OriginalVar(id)
			if orig != x || seen[orig] {
				t.Fatalf("var %d: id %d maps to %d (dup=%v)", x, id, orig, seen[orig])
			}
			seen[orig] = true
		}
	}
	sampled, suppressed := w.Counts()
	if sampled != uint64(len(seen)) || sampled+suppressed != vars {
		t.Fatalf("Counts() = %d, %d; want %d sampled of %d", sampled, suppressed, len(seen), vars)
	}
}

// TestResolve: an explicit rate beats the spelling's, seed 0 means the
// default seed, a bad rate from either source is an error, and a precise
// variant with no explicit rate has no policy.
func TestResolve(t *testing.T) {
	rate := func(r float64) *float64 { return &r }
	cases := []struct {
		variant string
		rate    *float64
		seed    uint64
		base    string
		want    *Policy
		bad     bool
	}{
		{"vft-v1", nil, 7, "vft-v1", nil, false},
		{"sampled", nil, 0, "vft-v2", &Policy{Rate: DefaultRate, Seed: DefaultSeed}, false},
		{"sampled:0.25", nil, 7, "vft-v2", &Policy{Rate: 0.25, Seed: 7}, false},
		{"sampled:0.25", rate(1), 0, "vft-v2", &Policy{Rate: 1, Seed: DefaultSeed}, false},
		{"vft-v1.5", rate(0.5), 9, "vft-v1.5", &Policy{Rate: 0.5, Seed: 9}, false},
		{"", rate(0), 0, "", &Policy{Rate: 0, Seed: DefaultSeed}, false},
		{"sampled:2", nil, 0, "", nil, true},
		{"vft-v2", rate(-0.1), 0, "", nil, true},
	}
	for _, tc := range cases {
		base, pol, err := Resolve(tc.variant, tc.rate, tc.seed)
		if tc.bad {
			if err == nil {
				t.Errorf("Resolve(%q, %v, %d): no error", tc.variant, tc.rate, tc.seed)
			}
			continue
		}
		if err != nil || base != tc.base || (pol == nil) != (tc.want == nil) || pol != nil && *pol != *tc.want {
			t.Errorf("Resolve(%q, %v, %d) = %q, %+v, %v; want %q, %+v", tc.variant, tc.rate, tc.seed, base, pol, err, tc.base, tc.want)
		}
	}
}
