// Package cli implements the command-line tools (vft-race, vft-bench,
// vft-server, vft-go) as testable functions: each command is a Run
// function over explicit streams and returns its exit code, and the
// binaries under cmd/ are one-line wrappers. Exit codes follow the usual
// grep-style convention for vft-race and vft-go: 0 no race, 1 race found,
// 2 error.
package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	verifiedft "repro"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// serveMetrics publishes reg as the expvar variable name and serves it over
// HTTP on addr: /metrics is the indented obs snapshot, /debug/vars the
// standard expvar dump (which embeds the same snapshot under name), and
// /debug/pprof/* the usual profiling handlers — CPU profiles taken there
// carry the program/detector pprof labels the tools set around their hot
// loops. Returns a shutdown function.
func serveMetrics(addr, name string, reg *obs.Registry, stderr io.Writer) (func(), error) {
	obs.Publish(name, reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	obs.HandleDebug(mux, reg)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "%s: serving metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n",
		name, ln.Addr())
	return func() { srv.Close() }, nil
}

// Race implements vft-race: check a trace (file argument, or stdin via
// "-" or no argument) for races. Inputs may be text, binary or gzip; the
// encoding is sniffed from the stream. The multi-variant cross-check and
// the oracle need the whole trace, so this tool materializes it (and -all
// -oracle and -explain build the order graph's transitive closure, one bit
// per pair of operations); use CheckReader/CheckSource for streams that
// must stay out of memory.
func Race(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-race", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("d", "vft-v2", "detector variant")
	all := fs.Bool("all", false,
		"run every variant; with -oracle, cross-check them differentially (first-report positions against the oracle, both specification flavours, rule counts; memory quadratic in the trace length, like -explain)")
	oracle := fs.Bool("oracle", false,
		"also run the happens-before oracle; the variant's verdict must equal it (on the sampled variables under -d sampled:<rate>)")
	explain := fs.Bool("explain", false, "explain every conflicting pair: a happens-before witness chain or RACE")
	parties := fs.Int("parties", 2, "participant count for barrier lowering")
	chancaps := fs.String("chancaps", "",
		"per-channel buffer capacities as comma-separated id:cap pairs, e.g. 0:2,1:0 (absent channels are unbuffered)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "vft-race: usage: vft-race [flags] [trace | -] (one trace per run)")
		return 2
	}
	caps, err := trace.ParseIDValues(*chancaps, "-chancaps", 0)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}

	in, closeIn, err := openInput(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	defer closeIn()

	src, err := trace.NewDecoder(in)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	partyMap := map[trace.Lock]int{}
	for _, op := range tr {
		if op.Kind == trace.Barrier {
			partyMap[op.M] = *parties
		}
	}
	ext := &trace.Extensions{BarrierParties: partyMap, ChanCapacity: caps}
	variants := []string{*variant}
	if *all {
		variants = core.Variants()
	}
	if err := validateFor(tr, ext, variants); err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}

	raced := false
	for _, v := range variants {
		reports, err := verifiedft.CheckTrace(tr, verifiedft.WithVariant(v),
			verifiedft.WithBarrierParties(partyMap), verifiedft.WithChanCapacities(caps))
		if err != nil {
			fmt.Fprintln(stderr, "vft-race:", err)
			return 2
		}
		if len(reports) > 0 {
			raced = true
		}
		for _, r := range reports {
			fmt.Fprintln(stdout, r)
		}
		if len(reports) == 0 && !*all {
			fmt.Fprintf(stdout, "[%s] no races detected (%d operations)\n", v, len(tr))
		}
	}
	if *all && !raced {
		fmt.Fprintf(stdout, "no races detected by any of %v (%d operations)\n", variants, len(tr))
	}
	var low trace.Trace
	if *oracle || *explain {
		low = tr.Desugar(ext)
	}
	if *oracle {
		rep := hb.Analyze(low)
		fmt.Fprintf(stdout, "oracle: %d concurrent conflicting pairs", len(rep.Races))
		if rep.HasRace() {
			fmt.Fprintf(stdout, " (first completes at operation #%d)", rep.FirstRaceAt())
		}
		fmt.Fprintln(stdout)
		if *all {
			// The triage path for a trace a conformance test printed or a
			// capture from the field: the whole differential stack on the
			// lowered trace, not just verdict booleans.
			if err := conformance.CheckTrace(denseIDs(low)); err != nil {
				fmt.Fprintf(stderr, "vft-race: DIVERGENCE: %v — detector bug\n", err)
				return 2
			}
		} else if oracleVerdict(variants[0], low, rep.Races) != raced {
			fmt.Fprintln(stderr, "vft-race: detector verdict disagrees with the oracle — precision bug")
			return 2
		}
	}
	if *explain {
		// Witness chains are computed on the lowered trace; positions
		// refer to it (the lowering only inserts lock operations).
		g := hb.BuildExplainedGraph(low)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "conflicting pairs (positions in the lowered trace):")
		for _, v := range g.ExplainConflicts() {
			fmt.Fprintln(stdout, g.Format(v))
		}
	}
	if raced {
		return 1
	}
	return 0
}

// oracleVerdict is the verdict the happens-before oracle's races imply for
// the named variant, which every variant's verdict must equal. A
// "sampled[:rate]" spelling promises the precise reports restricted to the
// sampled variables, so the oracle's races are restricted the same way. low
// is the lowered trace races index; CheckTrace has already accepted variant.
func oracleVerdict(variant string, low trace.Trace, races []hb.RacePair) bool {
	_, pol, _ := sample.ParseVariant(variant)
	for _, p := range races {
		if pol == nil || pol.Sampled(low[p.Second].X) {
			return true
		}
	}
	return false
}

// Bench implements vft-bench: regenerate Table 1.
func Bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 10, "measured iterations per cell (the paper uses 10)")
	warmup := fs.Int("warmup", 2, "warm-up iterations per cell")
	quick := fs.Bool("quick", false, "use the small test sizes")
	detectors := fs.String("detectors", strings.Join(core.Variants(), ","),
		"comma-separated detector variants")
	programs := fs.String("programs", "", "comma-separated program subset (default: whole suite)")
	sampling := fs.Bool("sampling", false,
		"run the sampling-tier benchmark (EXPERIMENTS.md E22) instead of Table 1: per-access cost, trace-checking overhead and conformance recall per sampling rate, with the soundness gates checked")
	samplingRates := fs.String("rates", "",
		"comma-separated sampling rates for -sampling (default 1,0.1,0.01,0.001)")
	traceFile := fs.String("trace", "",
		"benchmark the detectors over this recorded trace (text, binary or gzip) instead of the workload suite")
	format := fs.String("format", "text", "output format: text or csv")
	jsonPath := fs.String("json", "BENCH_table1.json",
		"also write the table as machine-readable JSON to this file ('' disables)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics over HTTP on this address while the bench runs (e.g. localhost:8071)")
	metricsLinger := fs.Duration("metrics-linger", 0,
		"keep the metrics endpoint up this long after the run finishes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "vft-bench: unknown format %q\n", *format)
		return 2
	}

	if *traceFile != "" {
		return benchTrace(*traceFile, splitList(*detectors), *iters, *warmup, stdout, stderr)
	}
	if *sampling {
		path := *jsonPath
		if path == "BENCH_table1.json" {
			path = "BENCH_sampling.json" // the -json default names the other table
		}
		return benchSampling(*samplingRates, *iters, *warmup, *quick, path, stdout, stderr)
	}

	opts := harness.Options{
		Warmup:    *warmup,
		Iters:     *iters,
		Detectors: splitList(*detectors),
		Quick:     *quick,
	}
	if *programs != "" {
		opts.Programs = splitList(*programs)
	}
	if *metricsAddr != "" {
		opts.Registry = obs.NewRegistry()
		shutdown, err := serveMetrics(*metricsAddr, "vft-bench", opts.Registry, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		defer shutdown()
		// Registered after shutdown, so it runs first (LIFO): the endpoint
		// stays scrapeable for the linger window, then closes.
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(stderr, "vft-bench: metrics endpoint lingering %v\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}
		}()
	}

	table, err := harness.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", *jsonPath)
	}
	if *format == "csv" {
		if err := table.FormatCSV(stdout); err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		return 0
	}
	fmt.Fprintln(stdout, "Table 1 — checking overhead (x base time); cf. paper §8")
	fmt.Fprintln(stdout)
	err = table.Format(stdout)
	if err == nil {
		err = table.FormatRuleMix(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	return 0
}

// benchTrace is vft-bench -trace: time the offline check of one recorded
// trace, reporting throughput per variant — for sizing detectors on
// captured workloads rather than the built-in suite.
func benchTrace(path string, detectors []string, iters, warmup int, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	defer f.Close()
	src, err := trace.NewDecoder(f)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if err := validateFor(tr, nil, detectors); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "Detector throughput over %s (%d ops; validation, lowering and check; best of %d iterations)\n\n",
		path, len(tr), iters)
	for _, v := range detectors {
		var best time.Duration
		for i := 0; i < warmup+iters; i++ {
			start := time.Now()
			if _, err := verifiedft.CheckTrace(tr, verifiedft.WithVariant(v)); err != nil {
				fmt.Fprintln(stderr, "vft-bench:", err)
				return 2
			}
			if el := time.Since(start); i >= warmup && (best == 0 || el < best) {
				best = el
			}
		}
		if best <= 0 {
			best = time.Nanosecond
		}
		fmt.Fprintf(stdout, "%-10s %14.0f ops/sec  (best %v)\n",
			v, float64(len(tr))/best.Seconds(), best)
	}
	return 0
}

// benchSampling is vft-bench -sampling: the overhead-vs-recall sweep of
// the sampling tier (EXPERIMENTS.md E22), written to BENCH_sampling.json.
// Exit 1 flags a soundness failure — a rate-1.0 run that was not
// report-identical to the precise tier, or any rate whose reports were
// not the precise reports restricted to its sampled variables.
func benchSampling(rates string, iters, warmup int, quick bool, jsonPath string, stdout, stderr io.Writer) int {
	opts := harness.SamplingOptions{Iters: iters, Warmup: warmup, Quick: quick}
	for _, raw := range splitList(rates) {
		rate, err := sample.ParseRate(raw)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		opts.Rates = append(opts.Rates, rate)
	}
	table, err := harness.RunSampling(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", jsonPath)
	}
	fmt.Fprintln(stdout, "Sampling tier — overhead vs recall (EXPERIMENTS.md E22)")
	fmt.Fprintln(stdout)
	if err := table.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if table.Divergent() {
		fmt.Fprintln(stderr, "vft-bench: sampling soundness gate failed (see the gates column)")
		return 1
	}
	return 0
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ifSet returns v if the command line set the named flag, else nil: an
// explicit -sample (even -sample 1, the identity gate) selects the sampling
// tier and overrides a -d sampled:<rate> spelling; the default does neither.
func ifSet(fs *flag.FlagSet, name string, v *float64) *float64 {
	var set *float64
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = v
		}
	})
	return set
}

// validateFor checks a materialized trace against the §2 feasibility
// constraints under the narrowest thread-id ceiling of the variants about
// to replay it (ft-cas's 8-bit tids, when it is among them), so a format
// limit is a positioned input error here rather than a panic in a handler.
func validateFor(tr trace.Trace, ext *trace.Extensions, variants []string) error {
	val := trace.NewValidator()
	val.Ext = ext
	for _, v := range variants {
		val.MaxTid = min(val.MaxTid, core.MaxTid(v))
	}
	for _, op := range tr {
		if err := val.Check(op); err != nil {
			return err
		}
	}
	return nil
}

// denseIDs renumbers a core-language trace's variables and locks in
// first-use order. conformance.CheckTrace replays raw ids into the
// specification and every detector, whose tables are indexed by id; this
// keeps a capture naming x2000000000 a three-entry check (thread ids are
// already bounded by validateFor's ft-cas ceiling). Operation positions,
// which is what a divergence reports, are unchanged.
func denseIDs(tr trace.Trace) trace.Trace {
	vars, locks := map[trace.Var]trace.Var{}, map[trace.Lock]trace.Lock{}
	out := make(trace.Trace, len(tr))
	for i, op := range tr {
		switch op.Kind {
		case trace.Read, trace.Write:
			x, ok := vars[op.X]
			if !ok {
				x = trace.Var(len(vars))
				vars[op.X] = x
			}
			op.X = x
		case trace.Acquire, trace.Release:
			m, ok := locks[op.M]
			if !ok {
				m = trace.Lock(len(locks))
				locks[op.M] = m
			}
			op.M = m
		}
		out[i] = op
	}
	return out
}
