package verifiedft

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/trace"
)

// TestHostileIDsAreBounded: a few dozen bytes naming one huge thread,
// variable or lock id cost what the ids they name cost, not what their
// magnitude would — on every offline path: each variant, sampled or not,
// streamed or materialized. Before the front stage compacted ids, the
// thread trace asked the detector for O(T²) clock entries (gigabytes), the
// lock trace for a 32M-entry lock table, and the variable trace for a
// 16 GB shadow table. The verdicts are the unbounded ones and the report
// text still names the trace's own ids.
func TestHostileIDsAreBounded(t *testing.T) {
	const budget = 64 << 20
	cases := []struct {
		name, text string
		x          trace.Var // the raced variable; -1: the trace is race-free
		names      string    // what an epoch variant's report must spell out
	}{
		{"thread", "fork 0 65000\nwr 65000 1\nwr 0 1\n", 1, "on x1 by thread 0: [Write-Write Race] prior access 65000@1"},
		{"variable", "fork 0 1\nwr 1 2000000000\nwr 0 2000000000\n", 2_000_000_000, "on x2000000000 by thread 0: [Write-Write Race] prior access 1@1"},
		{"lock", "acq 0 16000000\nrel 0 16000000\n", -1, ""},
	}
	for _, tc := range cases {
		src, err := trace.NewDecoder(strings.NewReader(tc.text))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func(...CheckOption) ([]Report, error){
			"CheckReader": func(o ...CheckOption) ([]Report, error) { return CheckReader(strings.NewReader(tc.text), o...) },
			"CheckTrace":  func(o ...CheckOption) ([]Report, error) { return CheckTrace(tr, o...) },
		}
		for _, variant := range Variants() {
			for _, rate := range []float64{-1, 0.5, 1} { // -1: unsampled
				for entry, check := range entries {
					opts := []CheckOption{WithVariant(variant)}
					want := 0
					if tc.x >= 0 {
						want = 1
					}
					if rate >= 0 {
						opts = append(opts, WithSampling(rate))
						if !(sample.Policy{Rate: rate}).Sampled(tc.x) {
							want = 0
						}
					}
					id := fmt.Sprintf("%s/%s/rate %v/%s", tc.name, variant, rate, entry)

					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					got, err := check(opts...)
					runtime.ReadMemStats(&after)
					if delta := after.TotalAlloc - before.TotalAlloc; delta > budget {
						t.Errorf("%s: allocated %d MiB, budget %d MiB", id, delta>>20, budget>>20)
					}

					if variant == FTCAS && tc.name == "thread" {
						// Beyond FT-CAS's 8-bit tids: still the positioned
						// input error, not a compacted success.
						var re *trace.TidRangeError
						if !errors.As(err, &re) || re.Index != 0 || re.Tid != 65000 || re.Max != core.MaxTid32 {
							t.Errorf("%s: err = %v, want *TidRangeError at #0 for tid 65000", id, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v", id, err)
						continue
					}
					if len(got) != want {
						t.Errorf("%s: %d reports, want %d: %v", id, len(got), want, got)
						continue
					}
					if want == 1 && (got[0].X != tc.x || !strings.Contains(got[0].String(), tc.names)) {
						t.Errorf("%s: report %q does not name the trace's ids (%s)", id, got[0], tc.names)
					}
				}
			}
		}
	}
}
