package ingest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/spec"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// rep builds a distinct-identity report; seq varies the one field the
// depot must ignore when interning.
func rep(x trace.Var, t epoch.Tid, rule spec.Rule, seq int) core.Report {
	return core.Report{
		Detector: "vft-v2",
		Rule:     rule,
		T:        3,
		X:        x,
		Prev:     epoch.Make(t, 7),
		Seq:      seq,
	}
}

// TestDepotDedupCounts: K occurrences of the same race — across uploads,
// with differing Seq — collapse into one aggregate with Count == K.
func TestDepotDedupCounts(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		uploads int // spread occurrences over this many uploads
	}{
		{"single", 1, 1},
		{"pair-one-upload", 2, 1},
		{"five-across-uploads", 5, 3},
		{"hundred", 100, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDepot(0)
			for i := 0; i < tc.k; i++ {
				upload := 1 + i%tc.uploads
				fresh, kept := d.Add(upload, rep(1, 2, spec.WriteWriteRace, i))
				if !kept {
					t.Fatalf("occurrence %d not kept under unlimited quota", i)
				}
				if fresh != (i == 0) {
					t.Fatalf("occurrence %d fresh=%v", i, fresh)
				}
			}
			if d.Len() != 1 {
				t.Fatalf("K=%d identical races produced %d aggregates, want 1", tc.k, d.Len())
			}
			a := d.Aggregates()[0]
			if a.Count != uint64(tc.k) {
				t.Fatalf("Count = %d, want %d", a.Count, tc.k)
			}
			if a.FirstUpload != 1 {
				t.Fatalf("FirstUpload = %d, want 1", a.FirstUpload)
			}
			if want := 1 + (tc.k-1)%tc.uploads; a.LastUpload != want {
				t.Fatalf("LastUpload = %d, want %d", a.LastUpload, want)
			}
			// The retained report is the first occurrence (Seq 0), not a later one.
			if a.Report.Seq != 0 {
				t.Fatalf("aggregate kept occurrence with Seq %d, want the first (0)", a.Report.Seq)
			}
		})
	}
}

// TestDepotDistinctIdentity: every field but Seq is identity-bearing —
// changing any one of them must produce a separate aggregate.
func TestDepotDistinctIdentity(t *testing.T) {
	base := rep(1, 2, spec.WriteWriteRace, 0)
	variants := []core.Report{
		base,
		func() core.Report { r := base; r.Detector = "ft-cas"; return r }(),
		func() core.Report { r := base; r.Rule = spec.ReadWriteRace; return r }(),
		func() core.Report { r := base; r.T = 9; return r }(),
		func() core.Report { r := base; r.X = trace.Var(42); return r }(),
		func() core.Report { r := base; r.Prev = epoch.Make(8, 8); return r }(),
	}
	d := NewDepot(0)
	for i, r := range variants {
		if fresh, _ := d.Add(1, r); !fresh {
			t.Fatalf("variant %d deduped against a different identity", i)
		}
	}
	if d.Len() != len(variants) {
		t.Fatalf("%d identities interned as %d aggregates", len(variants), d.Len())
	}
	// Seq alone is NOT identity-bearing.
	if fresh, _ := d.Add(2, func() core.Report { r := base; r.Seq = 99; return r }()); fresh {
		t.Fatal("Seq change treated as a new identity")
	}
}

// TestDepotQuota: the quota bounds distinct races, never repetition
// counts — repeats of retained races aggregate even over quota, fresh
// races beyond it are dropped and counted.
func TestDepotQuota(t *testing.T) {
	d := NewDepot(2)
	d.Add(1, rep(1, 2, spec.WriteWriteRace, 0))
	d.Add(1, rep(2, 2, spec.WriteWriteRace, 1))
	// Third distinct race: over quota, dropped.
	if fresh, kept := d.Add(2, rep(3, 2, spec.WriteWriteRace, 0)); !fresh || kept {
		t.Fatalf("over-quota fresh race: fresh=%v kept=%v, want true/false", fresh, kept)
	}
	// Repeat of a retained race: still aggregates.
	if fresh, kept := d.Add(3, rep(1, 2, spec.WriteWriteRace, 5)); fresh || !kept {
		t.Fatalf("over-quota repeat: fresh=%v kept=%v, want false/true", fresh, kept)
	}
	if d.Len() != 2 || d.Dropped() != 1 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/1", d.Len(), d.Dropped())
	}
	if a := d.Aggregates()[0]; a.Count != 2 || a.LastUpload != 3 {
		t.Fatalf("retained race did not aggregate over quota: %+v", a)
	}
}

// TestDepotTenantIsolation drives two tenants through a server with
// identical uploads and checks that dedup state never crosses the tenant
// boundary: each tenant sees its own counts, first-seen ids, and quota
// accounting as if the other tenant did not exist.
func TestDepotTenantIsolation(t *testing.T) {
	s := New(Config{TenantReportQuota: 4})
	r := rep(1, 2, spec.WriteWriteRace, 0)
	// Tenant A interns the race in its upload 1 and repeats it in upload 2;
	// tenant B first sees the same race later, in its own upload 1.
	ta, tb := s.tenantState("tenant-a"), s.tenantState("tenant-b")
	ta.depot.Add(1, r)
	ta.depot.Add(2, r)
	tb.depot.Add(1, r)

	aggA, aggB := ta.depot.Aggregates(), tb.depot.Aggregates()
	if len(aggA) != 1 || len(aggB) != 1 {
		t.Fatalf("aggregate counts %d/%d, want 1/1", len(aggA), len(aggB))
	}
	if aggA[0].Count != 2 || aggB[0].Count != 1 {
		t.Fatalf("cross-tenant count bleed: A=%d B=%d, want 2/1", aggA[0].Count, aggB[0].Count)
	}
	if aggA[0].LastUpload != 2 || aggB[0].LastUpload != 1 {
		t.Fatalf("cross-tenant upload-id bleed: A=%d B=%d", aggA[0].LastUpload, aggB[0].LastUpload)
	}
	// Mutating one tenant's copy of the aggregates must not reach the other
	// (Aggregates returns copies) — and certainly not the depot itself.
	aggA[0].Count = 999
	if got := ta.depot.Aggregates()[0].Count; got != 2 {
		t.Fatalf("Aggregates returned a live reference: count became %d", got)
	}
}

// TestDepotRestoreRebuildsIndex: a depot restored from persisted
// aggregates (the drain/restart path) must dedup new occurrences against
// the restored identities, not re-intern them.
func TestDepotRestoreRebuildsIndex(t *testing.T) {
	d := NewDepot(0)
	d.Add(1, rep(1, 2, spec.WriteWriteRace, 0))
	d.Add(1, rep(2, 2, spec.ReadWriteRace, 1))

	d2 := NewDepot(0)
	d2.restore(d.Aggregates(), d.Dropped())
	if fresh, _ := d2.Add(5, rep(1, 2, spec.WriteWriteRace, 9)); fresh {
		t.Fatal("restored depot failed to dedup a persisted identity")
	}
	if d2.Len() != 2 {
		t.Fatalf("restored depot has %d aggregates, want 2", d2.Len())
	}
	if a := d2.Aggregates()[0]; a.Count != 2 || a.LastUpload != 5 {
		t.Fatalf("restored aggregate did not accumulate: %+v", a)
	}
}

// TestDepotGoldenJSON pins the wire shape of the aggregated view — the
// exact JSON a tenant reads from GET /v1/reports — against a checked-in
// fixture. Run with -update to regenerate.
func TestDepotGoldenJSON(t *testing.T) {
	d := NewDepot(2)
	d.Add(1, rep(1, 2, spec.WriteWriteRace, 0))
	d.Add(1, rep(1, 2, spec.WriteWriteRace, 1)) // dedups into the first
	d.Add(2, rep(2, 4, spec.ReadWriteRace, 0))
	d.Add(2, rep(3, 2, spec.WriteWriteRace, 1)) // over quota: dropped
	got, err := json.MarshalIndent(struct {
		Distinct   int         `json:"distinct"`
		Dropped    uint64      `json:"dropped"`
		Aggregated []Aggregate `json:"aggregated"`
	}{d.Len(), d.Dropped(), d.Aggregates()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "depot_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregated view drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
