// Command bench is the repository's benchmark: one instrument that
// measures what a user of the detector pays — online under the Runtime,
// offline through CheckReader, per upload through vft-server, and from Go
// source to verdict through vft-go — and, in a separate traced pass,
// which layer the time went to. See README.md for the metric and workload
// tables and BENCHMARK.json at the repo root for the driver's contract.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh --workload all [--quick]     every workload, one child process each
//	bash bench/run.sh --aa                         the full set twice, compared against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed of the committed baseline and of -aa.
const defaultSeed = 1

// schemaVersion versions the results files under bench/out.
const schemaVersion = 1

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// env is what every workload needs to know about this run. run.sh points
// the Go tools this process starts at caches and temp space under build,
// with the network off; they inherit that environment.
type env struct {
	root    string // the checkout
	build   string // root/.bench_build: go caches, binaries, work files
	out     string // root/bench/out: results and span files
	seed    uint64
	seconds float64
	quick   bool
	procs   int // the pinned GOMAXPROCS, of this process and of every child
}

// shardWorkers is the argument of WithParallelism and the parcheck worker
// count on the parallel paths. It is a constant, not the processor count:
// on the one processor the benchmark pins, two workers run the whole
// parallel machinery (prepass, shard queues, merge) and measure what it
// costs, which is all a host this small can say about it.
const shardWorkers = 2

// scale shrinks inputs ~10× under -quick.
func (e *env) scale() int {
	if e.quick {
		return 10
	}
	return 1
}

// minReps is the least number of timed repetitions behind a reported
// median; a quick run, whose numbers are never compared, settles for 3.
func (e *env) minReps() int {
	if e.quick {
		return 3
	}
	return 10
}

func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// childArgs are the flags that make a child of this binary see the same
// checkout, workload, seed and scale.
func (e *env) childArgs(workload string) []string {
	args := []string{"-root", e.root, "-workload", workload, "-seed", fmt.Sprint(e.seed)}
	if e.quick {
		args = append(args, "-quick")
	}
	return args
}

// workDir returns a fresh scratch directory for the named workload.
func (e *env) workDir(name string) (string, error) {
	dir := filepath.Join(e.build, "work", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// workload is one benchmark workload. setup may be called again after
// close; measure fills the end-to-end metrics of r, traced the per-layer
// ones.
type workload interface {
	setup(e *env) error
	measure(e *env, r *result) error
	traced(e *env, r *result) error
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "online-readshared":
		return &onlineWorkload{name: name, k: readSharedKernel}, nil
	case "online-syncdense":
		return &onlineWorkload{name: name, k: syncDenseKernel}, nil
	case "offline-accessdense":
		return &offlineWorkload{name: name, shape: "accessdense"}, nil
	case "offline-accessdense-par":
		return &offlineWorkload{name: name, shape: "accessdense", parallel: true}, nil
	case "offline-syncdense":
		return &offlineWorkload{name: name, shape: "syncdense"}, nil
	case "offline-syncdense-par":
		return &offlineWorkload{name: name, shape: "syncdense", parallel: true}, nil
	case "server-mixed":
		return &serverWorkload{}, nil
	case "vftgo-pool":
		return &vftgoWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs      []metricDef
	summaries map[string]summary
	notes     []string
}

func newResult(defs []metricDef) *result {
	return &result{Correct: true, Metrics: map[string]metricValue{}, defs: defs, summaries: map[string]summary{}}
}

// set records a metric; the name must be in the run's vocabulary.
func (r *result) set(name string, v float64) {
	def, ok := metricByName(r.defs, name)
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

// setSamples records a metric as the median of its samples and keeps the
// quartiles and sample count for the printed table.
func (r *result) setSamples(name string, xs []float64) {
	s := summarize(xs)
	r.set(name, s.Median)
	r.summaries[name] = s
}

// attempt counts one checked operation; a non-nil err is a failure.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		if len(r.notes) < 8 {
			r.notes = append(r.notes, "FAILED: "+err.Error())
		}
	}
}

// noteRaw prints what the calibrated verdict_p50_ms was before
// calibration, and the host speed it was calibrated with.
func (r *result) noteRaw(rawMS, speeds []float64) {
	r.note("as measured, before scaling to the host's nominal speed: verdict_p50_ms %.6g; host speed x%.3f (median of %d)",
		median(rawMS), median(speeds), len(speeds))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fillAbsent gives every declared metric the run did not measure the value
// 0: the layer did no work on this workload.
func (r *result) fillAbsent() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
}

func (r *result) print(w *os.File, workload string) {
	for _, d := range r.defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-24s %-36s %16.6g %-9s", workload, d.Name, m.Value, m.Unit)
		if s, ok := r.summaries[d.Name]; ok {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-24s note: %s\n", workload, n)
	}
}

// provenance is recorded in every results file.
type provenance struct {
	Schema     int     `json:"schema"`
	GitRev     string  `json:"git_rev"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Traced     bool    `json:"traced"`
	TimeUTC    string  `json:"time_utc"`
}

func (e *env) provenance(traced bool) provenance {
	// Outside a git work tree the revision is unknown and the tree cannot
	// be vouched for, so it counts as dirty.
	p := provenance{Schema: schemaVersion, GitRev: "unknown", Dirty: true, GoVersion: runtime.Version(),
		NumCPU: hostCPUs(), GOMAXPROCS: e.procs, Seed: e.seed, Seconds: e.seconds,
		Quick: e.quick, Traced: traced, TimeUTC: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", e.root, "status", "--porcelain").Output()
		p.Dirty = err != nil || len(st) > 0
	}
	return p
}

// hostCPUs is how many processors the machine has. runtime.NumCPU will not
// do: it counts the CPUs this process may run on, and run.sh ties it to one.
func hostCPUs() int {
	info, err := os.ReadFile("/proc/cpuinfo")
	if n := strings.Count("\n"+string(info), "\nprocessor"); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// writeJSON writes v to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs a single workload in this process and prints the driver's
// JSON line last.
func runOne(e *env, name string, trace bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := newResult(defs)

	rounds := setupRounds
	if trace {
		rounds = 1 // setup_s is an end-to-end metric; the traced pass sets up once
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		if i > 0 {
			w.close()
		}
		var err error
		var el time.Duration
		speed := childProbe.speedAround(func() {
			t0 := time.Now()
			err = w.setup(e)
			el = time.Since(t0)
		})
		if err != nil {
			w.close()
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, el.Seconds()*speed)
	}
	defer w.close()

	if trace {
		// The per-layer timings are reported as measured; the host's speed
		// before and after them says which kind of stretch they fell into.
		speeds := []float64{childProbe.speedAround(func() {})}
		err = w.traced(e, r)
		speeds = append(speeds, childProbe.speedAround(func() {}))
		r.setSamples("bench.host_speed_x", speeds)
	} else {
		r.setSamples("setup_s", setups)
		err = w.measure(e, r)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.fillAbsent()
	if r.Attempted == 0 {
		return fmt.Errorf("%s: nothing was attempted", name)
	}

	label := name
	if e.quick {
		label += " [quick: not comparable]"
	}
	r.print(os.Stdout, label)
	kind := "results"
	if trace {
		kind = "layers"
	}
	file := struct {
		Provenance provenance         `json:"provenance"`
		Workload   string             `json:"workload"`
		Result     *result            `json:"result"`
		Summaries  map[string]summary `json:"summaries"`
		Notes      []string           `json:"notes,omitempty"`
	}{e.provenance(trace), name, r, r.summaries, r.notes}
	if err := writeJSON(filepath.Join(e.out, kind+"-"+name+".json"), file); err != nil {
		return err
	}

	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// findRoot walks up from the working directory to the checkout: the
// directory holding BENCHMARK.json and bench/go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json with bench/go.mod above the working directory")
		}
		dir = parent
	}
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Uint64("seed", defaultSeed, "input seed")
		secs         = flag.Float64("seconds", 0, "how long one run measures (default 28, or 1 with -quick)")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		quick        = flag.Bool("quick", false, "shrink inputs ~10x for a smoke run; numbers are labelled quick and never compared")
		aa           = flag.Bool("aa", false, "run the full set twice and compare each end-to-end metric against its bound")
		root         = flag.String("root", "", "checkout root (default: found from the working directory)")
		oneVerdict   = flag.Bool("one-verdict", false, "internal: build the workload's input, produce one verdict, exit (the peak-RSS child)")
	)
	flag.Parse()
	if *secs == 0 {
		*secs = runSeconds
		if *quick {
			*secs = 1
		}
	}
	if flag.NArg() != 0 || *secs < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-aa]")
		os.Exit(2)
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		*root = r
	}

	// P is fixed by rule, never by flag, and recorded with every result: one
	// processor, for this process and — through the environment — for every
	// process it starts (vft-server, vft-go and the Go tools it runs, the
	// pool binaries). The hosts this runs on lend a few shared cores; with
	// more runnable threads than free cores a timing measures the host's
	// scheduler and the neighbours, not the program (README.md, Steadiness).
	const procs = 1
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", fmt.Sprint(procs))

	e := &env{root: *root, build: filepath.Join(*root, ".bench_build"),
		out: filepath.Join(*root, "bench", "out"), seed: *seed, seconds: *secs, quick: *quick, procs: procs}

	var err error
	switch {
	case *oneVerdict:
		err = runOneVerdict(e, *workloadFlag)
	case *aa:
		err = runAA(e)
	case *workloadFlag == "all":
		_, err = runAll(e, *trace == 1)
	default:
		err = runOne(e, *workloadFlag, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload as its own child process — a fresh heap and
// its own ru_maxrss each — echoing the children's tables.
func runAll(e *env, trace bool) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]*result{}
	var failed []string
	for _, w := range allWorkloads() {
		args := append(e.childArgs(w.Name), "-seconds", fmt.Sprint(e.seconds))
		if trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		cr := new(result)
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), cr); jerr != nil {
			return nil, fmt.Errorf("%s: no result line (%v)", w.Name, err)
		}
		results[w.Name] = cr
		if err != nil || !cr.Correct {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	return results, nil
}

// runAA runs the full set twice on the same binary and compares every
// (end-to-end metric, workload) pair against the metric's bound, writing
// the table to bench/AA.md.
func runAA(e *env) error {
	first, err := runAll(e, false)
	if err != nil {
		return err
	}
	second, err := runAll(e, false)
	if err != nil {
		return err
	}
	var b strings.Builder
	p := e.provenance(false)
	fmt.Fprintf(&b, "# A/A: two runs of the same binary\n\n")
	fmt.Fprintf(&b, "`bench -aa -seed %d -seconds %g` at %s (dirty=%v), %s, NumCPU=%d, GOMAXPROCS=%d, %s.\n",
		e.seed, e.seconds, p.GitRev, p.Dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.TimeUTC)
	fmt.Fprintf(&b, "`worse` is how much worse the second run reads than the first, as a share of the first; it must stay within `bound`.\n\n")
	fmt.Fprintf(&b, "| workload | metric | unit | first | second | worse | bound | ok |\n|---|---|---|---:|---:|---:|---:|---|\n")
	breaches := 0
	names := make([]string, 0, len(first))
	for n := range first {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, d := range endToEnd {
			a, c := first[n].Metrics[d.Name].Value, second[n].Metrics[d.Name].Value
			worse := (c - a) / a
			if d.Better == higher {
				worse = (a - c) / a
			}
			ok := "yes"
			if worse > d.Bound {
				ok = "NO"
				breaches++
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %s |\n",
				n, d.Name, d.Unit, a, c, 100*worse, 100*d.Bound, ok)
		}
	}
	fmt.Print(b.String())
	if !e.quick {
		if err := os.WriteFile(filepath.Join(e.root, "bench", "AA.md"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", breaches)
	}
	return nil
}
