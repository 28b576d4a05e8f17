package verifiedft

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestEveryReportNamesARaceRule: every variant is a precise happens-before
// detector, so every report it makes names a Fig. 2 race rule and a prior
// access by another thread — from the offline check and from a bare
// detector replaying the lowered trace alike. The traces are one recorded
// schedule of each conformance kernel and generated core and Go-sync
// traces.
func TestEveryReportNamesARaceRule(t *testing.T) {
	type input struct {
		name string
		tr   Trace
		caps map[LockID]int
	}
	var inputs []input
	for _, prog := range conformance.Programs() {
		tr, _, err := conformance.RunOne(prog, "pct", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: prog.Name, tr: tr})
	}
	for _, row := range []struct {
		name string
		cfg  trace.GenConfig
	}{
		{"core", trace.DefaultGenConfig()},
		{"gosync", trace.GoSyncGenConfig()},
	} {
		var caps map[LockID]int
		if ext := row.cfg.Extensions(); ext != nil {
			caps = ext.ChanCapacity
		}
		for seed := int64(0); seed < 10; seed++ {
			tr := trace.Generate(rand.New(rand.NewSource(seed)), row.cfg)
			inputs = append(inputs, input{fmt.Sprintf("%s seed %d", row.name, seed), tr, caps})
		}
	}

	checked := 0
	for _, in := range inputs {
		low := in.tr.Desugar(&trace.Extensions{ChanCapacity: in.caps})
		for _, variant := range Variants() {
			offline, err := CheckTrace(in.tr, WithVariant(variant), WithChanCapacities(in.caps))
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, variant, err)
			}
			bare, err := core.New(variant, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range append(offline, core.Replay(bare, low)...) {
				if !r.Rule.IsRace() || r.Prev.Tid() == r.T {
					t.Errorf("%s/%s: report %v names no race rule, or a prior access by its own thread", in.name, variant, r)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no reports checked")
	}
	t.Logf("%d reports checked over %d traces", checked, len(inputs))
}
