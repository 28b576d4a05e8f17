package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/goinstr"
	"repro/internal/goinstr/rt"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sample"
)

// RunVftGo implements vft-go: instrument a real Go package and execute
// it under trace capture; the verified detector checks the run inside the
// program (see package rt), and vft-go renders the verdict the shim wrote
// into the capture's sidecar.
//
//	vft-go [flags] build <pkg-dir>           instrument + compile only
//	vft-go [flags] run   <pkg-dir> [args...] instrument, run (checked inline)
//	vft-go [flags] test  <pkg-dir> [args...] instrument tests, go test (checked inline)
//
// Exit codes follow vft-race: 0 no race, 1 race found, 2 error.
func RunVftGo(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-go", flag.ContinueOnError)
	fs.SetOutput(stderr)
	elide := fs.Bool("elide", true,
		"elide accesses the may-share analysis proves goroutine-local")
	keep := fs.String("o", "", "write the shadow module here and keep it (default: temp dir)")
	traceFlag := fs.String("trace", "", "write the captured trace here and keep it")
	server := fs.String("server", "",
		"vft-server base URL: also upload the trace and diff its reports against the inline check's")
	tenant := fs.String("tenant", "vft-go", "tenant name for -server uploads")
	metricsAddr := fs.String("metrics-addr", "", "serve instrumentation counters on this address")
	sampleRate := fs.Float64("sample", 0,
		"report only the races on variables the sampling tier keeps at this per-variable rate (0 = precise); the program still logs every access")
	sampleSeed := fs.Uint64("sample-seed", 0, "sampling seed")
	verbose := fs.Bool("v", false, "per-phase detail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var pol *sample.Policy
	if *sampleRate != 0 {
		pol = &sample.Policy{Rate: *sampleRate, Seed: *sampleSeed}
		if err := pol.Validate(); err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
	}
	rest := fs.Args()
	if len(rest) < 2 {
		fmt.Fprintln(stderr, "vft-go: usage: vft-go [flags] build|run|test <pkg-dir> [args...]")
		return 2
	}
	mode, dir, progArgs := rest[0], rest[1], rest[2:]
	if mode != "build" && mode != "run" && mode != "test" {
		fmt.Fprintf(stderr, "vft-go: unknown mode %q (build, run or test)\n", mode)
		return 2
	}
	// In a directory that does not exist, or over a directory, the shim
	// could not open the capture or write its sidecar: the program would
	// run unchecked and leave no verdict.
	if *traceFlag != "" {
		traceDir := filepath.Dir(*traceFlag)
		fi, err := os.Stat(traceDir)
		if err == nil && !fi.IsDir() {
			err = fmt.Errorf("%s is not a directory", traceDir)
		}
		for _, p := range []string{*traceFlag, rt.MetaPath(*traceFlag)} {
			if fi, serr := os.Stat(p); err == nil && serr == nil && fi.IsDir() {
				err = fmt.Errorf("%s is a directory", p)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "vft-go: -trace %s: %v\n", *traceFlag, err)
			return 2
		}
	}

	reg := obs.NewRegistry()
	cSites := reg.Counter("instr.sites")
	cElided := reg.Counter("instr.elided")
	cSkipped := reg.Counter("instr.skipped")
	cEvents := reg.Counter("instr.events")
	if *metricsAddr != "" {
		shutdown, err := serveMetrics(*metricsAddr, "vft-go", reg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		defer shutdown()
	}

	shadow := *keep
	if shadow == "" {
		tmp, err := os.MkdirTemp("", "vft-go")
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		shadow = tmp
	}

	// The -v phase line: wall time around each goinstr call, in call order,
	// to 0.1 ms: a warm phase takes about a millisecond.
	var phases []string
	round := func(d time.Duration) string { return d.Round(100 * time.Microsecond).String() }
	span := func(name string, t0 time.Time, detail string) {
		phases = append(phases, name+" "+round(time.Since(t0))+detail)
	}
	if *verbose {
		defer func() {
			if len(phases) > 0 {
				fmt.Fprintln(stderr, "vft-go:", strings.Join(phases, " "))
			}
		}()
	}

	t0 := time.Now()
	inst, err := goinstr.Instrument(dir, goinstr.Options{
		Elide:        *elide,
		IncludeTests: mode == "test",
		OutDir:       shadow,
	})
	if err != nil {
		fmt.Fprintln(stderr, "vft-go:", err)
		return 2
	}
	// Without a go list, Instrument ran no go command: in a kept module its
	// record stood in for the list, or for all of Instrument.
	if *keep != "" && inst.GoList == 0 {
		span("instrument", t0, " (kept: no go command)")
	} else {
		span("instrument", t0, " (go list "+round(inst.GoList)+")")
	}
	shadow = inst.Dir // absolute, whatever -o said
	cSites.Add(uint64(inst.Stats.Sites))
	cElided.Add(uint64(inst.Stats.Elided))
	cSkipped.Add(uint64(inst.Stats.Skipped))
	if *verbose {
		fmt.Fprintf(stderr, "vft-go: instrumented %s: %d sites, %d elided (%.0f%%), %d skipped\n",
			dir, inst.Stats.Sites, inst.Stats.Elided, 100*inst.Stats.ElisionRate(), inst.Stats.Skipped)
	}

	tracePath := *traceFlag
	if tracePath == "" {
		tracePath = filepath.Join(shadow, "trace.bin")
	}

	var metaPath string
	switch mode {
	case "build":
		t0 = time.Now()
		bin, err := goinstr.Build(shadow)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		span("build", t0, "")
		fmt.Fprintf(stdout, "vft-go: built %s (shadow module %s)\n", bin, shadow)
		if *keep == "" {
			fmt.Fprintln(stderr, "vft-go: note: shadow module is temporary; use -o to keep it")
		}
		return 0

	case "run":
		if !inst.Main {
			fmt.Fprintf(stderr, "vft-go: %s is not a main package (use vft-go test)\n", dir)
			return 2
		}
		t0 = time.Now()
		bin, err := goinstr.Build(shadow)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		span("build", t0, "")
		t0 = time.Now()
		metaPath, err = goinstr.Run(bin, tracePath, progArgs, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		span("run", t0, "")

	case "test":
		t0 = time.Now()
		metaPath, err = goinstr.RunTests(shadow, tracePath, progArgs, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		span("test", t0, "")
	}

	cr, err := goinstr.Verdict(metaPath)
	if err != nil {
		fmt.Fprintln(stderr, "vft-go:", err)
		return 2
	}
	if pol != nil {
		cr.Sample(*pol)
	}
	cEvents.Add(uint64(cr.Events))
	if *verbose {
		fmt.Fprintf(stderr, "vft-go: checked %d events, %d reports\n", cr.Events, len(cr.Reports))
	}
	if cr.Meta.Dropped > 0 || cr.Meta.Timeouts > 0 {
		fmt.Fprintf(stderr, "vft-go: capture degraded: %d events dropped, %d channel waits timed out (channels with uninstrumented peers are traced best-effort)\n",
			cr.Meta.Dropped, cr.Meta.Timeouts)
	}

	lines := cr.Canonical()
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}

	if *server != "" {
		serverLines, err := uploadAndRender(*server, *tenant, tracePath, cr, pol)
		if err != nil {
			fmt.Fprintln(stderr, "vft-go:", err)
			return 2
		}
		if strings.Join(serverLines, "\n") != strings.Join(lines, "\n") {
			fmt.Fprintf(stderr, "vft-go: server reports diverge from the inline check\n  local:  %q\n  server: %q\n",
				lines, serverLines)
			return 2
		}
		fmt.Fprintf(stderr, "vft-go: server check agrees (%d reports)\n", len(serverLines))
	}

	if len(lines) > 0 {
		return 1
	}
	return 0
}

// uploadAndRender POSTs the captured trace to a vft-server with the
// sidecar's channel capacities and renders the server's reports with the
// same canonical naming the local verdict used. A local sampling policy is
// forwarded as ?sample=/&sample_seed= so the server's decisions (a pure
// function of seed and variable id) match the local filter's exactly and
// the report diff stays meaningful.
func uploadAndRender(base, tenant, tracePath string, cr *goinstr.CheckResult, pol *sample.Policy) ([]string, error) {
	q := url.Values{"tenant": {tenant}}
	if pol != nil {
		q.Set("sample", strconv.FormatFloat(pol.Rate, 'g', -1, 64))
		q.Set("sample_seed", strconv.FormatUint(pol.Seed, 10))
	}
	var pairs []string
	for id, c := range cr.Meta.Chans {
		pairs = append(pairs, fmt.Sprintf("%d:%d", id, c))
	}
	sort.Strings(pairs)
	if len(pairs) > 0 {
		q.Set("chancap", strings.Join(pairs, ","))
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	resp, err := http.Post(strings.TrimSuffix(base, "/")+"/v1/traces?"+q.Encode(),
		"application/octet-stream", f)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var res struct {
		Reports []ingest.Report `json:"reports"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("server response: %w", err)
	}
	server := &goinstr.CheckResult{Meta: cr.Meta}
	for _, rep := range res.Reports {
		server.Reports = append(server.Reports, rep.Core())
	}
	return server.Canonical(), nil
}
