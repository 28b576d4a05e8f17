package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/rtsim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ParallelOptions configures the offline parallel-checking benchmark
// (EXPERIMENTS.md E17): record each workload's event stream once, then
// time checking the identical trace at each worker count.
type ParallelOptions struct {
	// Warmup and Iters follow the Table 1 methodology.
	Warmup int
	Iters  int
	// Workers lists the worker counts to measure; 1 is the sequential
	// detector (CheckTrace's default), so the speedup column is end-to-end
	// against the real baseline.
	Workers []int
	// Variant is the detector variant to replay (default vft-v2).
	Variant string
	// Programs restricts the workloads (default montecarlo and pmd, the
	// paper-scale programs the acceptance criterion names).
	Programs []string
	// Quick selects the small test sizes instead of the bench sizes.
	Quick bool
}

// DefaultParallelOptions mirrors the E17 setup.
func DefaultParallelOptions() ParallelOptions {
	return ParallelOptions{
		Warmup:   1,
		Iters:    5,
		Workers:  []int{1, 2, 4, 8},
		Variant:  "vft-v2",
		Programs: []string{"montecarlo", "pmd"},
	}
}

// ParallelRow is one workload's measurements.
type ParallelRow struct {
	Program string
	Suite   string
	// Ops is the recorded trace length (lowered ops are identical here:
	// the workloads use volatiles/barriers only through rtsim, which
	// already delivers plain acquire/release events).
	Ops int
	// Reports is the race-report count (0 on the race-free suite).
	Reports int
	// Times maps worker count to mean checking time per iteration.
	Times map[int]time.Duration
	// Speedup maps worker count to Times[1]/Times[n].
	Speedup map[int]float64
}

// ParallelTable is the full E17 result.
type ParallelTable struct {
	Options ParallelOptions
	Rows    []ParallelRow
}

// RunParallel records each workload's event stream and measures checking
// it sequentially and sharded.
func RunParallel(opts ParallelOptions) (*ParallelTable, error) {
	if opts.Variant == "" {
		opts.Variant = "vft-v2"
	}
	if len(opts.Workers) == 0 {
		opts.Workers = []int{1, 2, 4, 8}
	}
	if len(opts.Programs) == 0 {
		opts.Programs = []string{"montecarlo", "pmd"}
	}
	table := &ParallelTable{Options: opts}
	for _, name := range opts.Programs {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		size := w.BenchSize
		if opts.Quick {
			size = w.TestSize
		}
		rec := core.NewRecorder()
		w.Run(rtsim.New(rec), size)
		tr := rec.Trace()

		row := ParallelRow{
			Program: w.Name,
			Suite:   w.Suite,
			Ops:     len(tr),
			Times:   map[int]time.Duration{},
			Speedup: map[int]float64{},
		}
		for _, workers := range opts.Workers {
			mean, reports, err := timeCheck(tr, opts, workers)
			if err != nil {
				return nil, fmt.Errorf("%s with %d workers: %w", name, workers, err)
			}
			row.Times[workers] = mean
			row.Reports = reports
		}
		if base, ok := row.Times[1]; ok {
			for workers, t := range row.Times {
				row.Speedup[workers] = float64(base) / float64(t)
			}
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// timeCheck measures one (trace, worker count) cell end-to-end — prescan,
// validation, lowering, checking — as CheckTrace with WithParallelism
// runs it; one worker is the sequential detector, the baseline column.
func timeCheck(tr trace.Trace, opts ParallelOptions, workers int) (time.Duration, int, error) {
	check := func() (int, error) {
		reports, err := verifiedft.CheckTrace(tr,
			verifiedft.WithVariant(opts.Variant), verifiedft.WithParallelism(workers))
		return len(reports), err
	}
	for i := 0; i < opts.Warmup; i++ {
		if _, err := check(); err != nil {
			return 0, 0, err
		}
	}
	var elapsed time.Duration
	var reports int
	for i := 0; i < opts.Iters; i++ {
		start := time.Now()
		n, err := check()
		elapsed += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		reports = n
	}
	return elapsed / time.Duration(opts.Iters), reports, nil
}

// Format renders the table as text, one row per workload with a column
// per worker count.
func (t *ParallelTable) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Parallel checking (%s, %d iters)\n", t.Options.Variant, t.Options.Iters); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %10s", "program", "ops"); err != nil {
		return err
	}
	for _, n := range t.Options.Workers {
		if _, err := fmt.Fprintf(w, " %12s", fmt.Sprintf("w=%d", n)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "%-12s %10d", r.Program, r.Ops); err != nil {
			return err
		}
		for _, n := range t.Options.Workers {
			cell := fmt.Sprintf("%.1fms/%.2fx", float64(r.Times[n].Microseconds())/1000, r.Speedup[n])
			if _, err := fmt.Fprintf(w, " %12s", cell); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// jsonParallelTable is the stable machine-readable shape of
// BENCH_parallel.json. Worker counts become string keys, the JSON idiom
// for integer-keyed maps.
type jsonParallelTable struct {
	Provenance Provenance        `json:"provenance"`
	Variant    string            `json:"variant"`
	Iters      int               `json:"iters"`
	Warmup     int               `json:"warmup"`
	Quick      bool              `json:"quick"`
	Workers    []int             `json:"workers"`
	Rows       []jsonParallelRow `json:"rows"`
}

type jsonParallelRow struct {
	Program string             `json:"program"`
	Suite   string             `json:"suite"`
	Ops     int                `json:"ops"`
	Reports int                `json:"reports"`
	Seconds map[string]float64 `json:"seconds"`
	Speedup map[string]float64 `json:"speedup"`
}

// WriteJSON renders the table as indented JSON.
func (t *ParallelTable) WriteJSON(w io.Writer) error {
	out := jsonParallelTable{
		Provenance: CollectProvenance(),
		Variant:    t.Options.Variant,
		Iters:      t.Options.Iters,
		Warmup:     t.Options.Warmup,
		Quick:      t.Options.Quick,
		Workers:    append([]int(nil), t.Options.Workers...),
	}
	sort.Ints(out.Workers)
	for _, r := range t.Rows {
		jr := jsonParallelRow{
			Program: r.Program,
			Suite:   r.Suite,
			Ops:     r.Ops,
			Reports: r.Reports,
			Seconds: map[string]float64{},
			Speedup: map[string]float64{},
		}
		for n, d := range r.Times {
			jr.Seconds[strconv.Itoa(n)] = d.Seconds()
		}
		for n, s := range r.Speedup {
			jr.Speedup[strconv.Itoa(n)] = s
		}
		out.Rows = append(out.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
