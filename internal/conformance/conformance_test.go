package conformance

import (
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hb"
	"repro/internal/rtsim"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// format renders a trace in the vft-race text format for failure messages.
func format(tr trace.Trace) string {
	var b strings.Builder
	if err := trace.Encode(&b, tr); err != nil {
		return err.Error()
	}
	return b.String()
}

// soak reports whether the long-running exploration tests should run; they
// are opt-in via VFT_SOAK=1 (tier-1 runs `go test ./...` without -short, so
// -short cannot be the gate).
func soak() bool { return os.Getenv("VFT_SOAK") != "" }

// TestProgramsConform explores every built-in kernel under both policies
// and requires complete detector/oracle agreement on every schedule. 20
// schedules per policy is the tier-1 floor; the soak run multiplies it.
func TestProgramsConform(t *testing.T) {
	schedules := 20
	if soak() {
		schedules = 500
	}
	for _, prog := range Programs() {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			for _, policy := range sched.PolicyNames() {
				opts := DefaultOptions()
				opts.Policy = policy
				opts.Schedules = schedules
				sum, err := Explore(prog, opts)
				if err != nil {
					t.Fatalf("%s: %v", policy, err)
				}
				for _, d := range sum.Divergences {
					t.Errorf("%v\n%s", d, format(d.Trace))
				}
				if sum.Schedules != schedules {
					t.Fatalf("%s: explored %d schedules, want %d", policy, sum.Schedules, schedules)
				}
			}
		})
	}
}

// fromWorkload wraps one Table 1 benchmark kernel at its test size so the
// same programs the harness measures also run under schedule exploration.
func fromWorkload(w workloads.Workload) Program {
	return Program{Name: w.Name, Run: func(rt *rtsim.Runtime) { w.Run(rt, w.TestSize) }}
}

// TestWorkloadsConform runs every Table 1 benchmark kernel (at test size)
// under schedule exploration. The kernels are race-free by construction, so
// beyond detector/oracle agreement the oracle itself must stay silent on
// every explored interleaving.
func TestWorkloadsConform(t *testing.T) {
	schedules := 20
	if soak() {
		schedules = 100
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Schedules = schedules
			sum, err := Explore(fromWorkload(w), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range sum.Divergences {
				t.Errorf("%v\n%s", d, format(d.Trace))
			}
			if sum.Racy != 0 {
				t.Errorf("%d of %d schedules raced on a race-free kernel", sum.Racy, sum.Schedules)
			}
		})
	}
}

// TestGeneratedTracesConform is the differential fuzzer: generated feasible
// traces, core-language and Go-synchronization (lowered with Desugar first:
// the detectors are compared on the §2 core language, so a lowering bug
// surfaces as a divergence on the lowered trace), each checked sequentially
// with CheckTrace and then re-executed as a concurrent program under
// controlled schedules of both policies, with detector/oracle agreement
// required on every linearization. Everything is a function of the seeds
// below; a failure prints the shrunk trace in the text format vft-race reads.
func TestGeneratedTracesConform(t *testing.T) {
	traces, perTrace := 10, 10
	if soak() {
		traces, perTrace = 200, 50
	}
	for _, row := range []struct {
		name string
		cfg  trace.GenConfig
	}{
		{"core", trace.DefaultGenConfig()},
		{"gosync", trace.GoSyncGenConfig()},
	} {
		racyTraces := 0
		explored := map[string]Summary{}
		for i := 0; i < traces; i++ {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			tr := trace.Generate(rng, row.cfg).Desugar(row.cfg.Extensions())
			if err := CheckTrace(tr); err != nil {
				shrunk := Shrink(tr)
				t.Fatalf("%s trace %d: %v\nshrunk (%v); replay with: vft-race -all -oracle <this file>\n%s",
					row.name, i, err, CheckTrace(shrunk), format(shrunk))
			}
			if hb.Analyze(tr).HasRace() {
				racyTraces++
			}
			prog, err := FromTrace("gen", tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range sched.PolicyNames() {
				opts := DefaultOptions()
				opts.Policy = policy
				opts.Schedules = perTrace
				opts.SeedBase = uint64(i + 1)
				sum, err := Explore(prog, opts)
				if err != nil {
					t.Fatalf("%s trace %d: %v", row.name, i, err)
				}
				for _, d := range sum.Divergences {
					t.Errorf("%s trace %d: %v\nreplay with: vft-race -all -oracle <this file>\n%s",
						row.name, i, d, format(d.Trace))
				}
				tot := explored[policy]
				tot.Schedules += sum.Schedules
				tot.Distinct += sum.Distinct
				tot.Racy += sum.Racy
				tot.Events += sum.Events
				explored[policy] = tot
			}
		}
		t.Logf("%s: %d traces checked (%d racy, %d race-free)", row.name, traces, racyTraces, traces-racyTraces)
		for _, policy := range sched.PolicyNames() {
			tot := explored[policy]
			t.Logf("%s: %d schedules explored (%s policy): %d distinct linearizations, %d racy, %d events",
				row.name, tot.Schedules, policy, tot.Distinct, tot.Racy, tot.Events)
		}
	}
}

// TestFromTracePreservesEvents checks that re-executing a trace under
// control yields a linearization with exactly the original per-thread
// projections: the schedule may reorder across threads, never within one.
func TestFromTracePreservesEvents(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	for i := 0; i < 5; i++ {
		rng := rand.New(rand.NewSource(int64(7 + i)))
		orig := trace.Generate(rng, cfg)
		prog, err := FromTrace("gen", orig)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunOne(prog, "pct", 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(got); err != nil {
			t.Fatalf("trace %d: re-executed linearization infeasible: %v", i, err)
		}
		if !reflect.DeepEqual(project(orig), project(got)) {
			t.Fatalf("trace %d: per-thread projections changed:\noriginal:\n%srecorded:\n%s",
				i, format(orig), format(got))
		}
	}
}

func project(tr trace.Trace) map[int][]string {
	out := map[int][]string{}
	for _, op := range tr {
		out[int(op.T)] = append(out[int(op.T)], op.String())
	}
	return out
}

// TestReplayDeterminism: the same (program, policy, seed) must reproduce
// the identical linearization — that is the whole replay story — and
// different seeds must reach more than one linearization for a
// schedule-sensitive program.
func TestReplayDeterminism(t *testing.T) {
	for _, prog := range Programs() {
		for _, policy := range sched.PolicyNames() {
			a, _, err := RunOne(prog, policy, 0xfeedbeef, []string{"vft-v2"})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := RunOne(prog, policy, 0xfeedbeef, []string{"vft-v2"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: same seed, different linearizations:\n%s---\n%s",
					prog.Name, policy, format(a), format(b))
			}
		}
	}
}

// TestScheduleDiversity pins down that exploration actually moves the
// schedule: across 20 seeds the policies must reach several distinct
// linearizations of racy-counter, and must see lock-shuffle both race and
// not race (its verdict is schedule-dependent).
func TestScheduleDiversity(t *testing.T) {
	byName := map[string]Program{}
	for _, p := range Programs() {
		byName[p.Name] = p
	}
	for _, policy := range sched.PolicyNames() {
		opts := DefaultOptions()
		opts.Policy = policy
		sum, err := Explore(byName["racy-counter"], opts)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Distinct < 3 {
			t.Errorf("%s: only %d distinct linearizations of racy-counter in %d schedules",
				policy, sum.Distinct, sum.Schedules)
		}
		if sum.Racy != sum.Schedules {
			t.Errorf("%s: racy-counter raced on %d/%d schedules, want all", policy, sum.Racy, sum.Schedules)
		}
		sum, err = Explore(byName["lock-shuffle"], opts)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Racy == 0 || sum.Racy == sum.Schedules {
			t.Errorf("%s: lock-shuffle raced on %d/%d schedules, want a schedule-dependent mix",
				policy, sum.Racy, sum.Schedules)
		}
	}
}
