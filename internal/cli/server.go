package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sample"
)

// parseTenantSamples parses the -tenant-samples grammar: comma-separated
// tenant:rate pairs, each rate a sampling probability in [0, 1].
func parseTenantSamples(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		tenant, raw, ok := strings.Cut(pair, ":")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("tenant-samples: %q is not a tenant:rate pair", pair)
		}
		rate, err := sample.ParseRate(raw)
		if err != nil {
			return nil, fmt.Errorf("tenant-samples: tenant %q: %v", tenant, err)
		}
		m[tenant] = rate
	}
	return m, nil
}

// serverSignals is the shutdown trigger, a variable so tests can drive a
// drain without delivering a real signal to the test process.
var serverSignals = func() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	return ch, func() { signal.Stop(ch) }
}

// Server implements vft-server: the long-running multi-tenant
// trace-ingestion service (see internal/ingest). It listens on -addr,
// serves the /v1 API plus the usual observability mux, and on SIGTERM or
// SIGINT drains — every accepted upload completes, new uploads get 503 —
// then optionally persists tenant state to -state so a restart resumes
// with the same reports. Exit codes: 0 clean serve-and-drain, 2 error.
func Server(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8070", "listen address")
	statePath := fs.String("state", "",
		"tenant-state file: loaded at startup if present, written after drain ('' disables)")
	maxInFlight := fs.Int("max-inflight", 0,
		"max concurrently checked uploads (0 = 2×GOMAXPROCS); beyond it POSTs get 429")
	queueWait := fs.Duration("queue-wait", 0,
		"how long a saturated upload may wait for a slot before 429 (0 = reject immediately)")
	retryAfter := fs.Duration("retry-after", time.Second,
		"Retry-After advertised on 429/503 responses")
	maxBody := fs.Int64("max-body", 0,
		"per-upload wire-byte cap (0 = 128 MiB); beyond it 413")
	maxOps := fs.Int("max-ops", 0,
		"per-upload decoded-operation cap (0 = 50M); beyond it 413")
	maxReportsPerVar := fs.Int("max-reports-per-var", 0,
		"cap race reports per variable within one upload (0 = unlimited)")
	reportQuota := fs.Int("tenant-report-quota", 0,
		"distinct aggregated races retained per tenant (0 = unlimited)")
	tenantBytes := fs.Int64("tenant-max-bytes", 0,
		"cumulative wire-byte quota per tenant (0 = unlimited)")
	tenantStreams := fs.Int("tenant-max-streams", 0,
		"cumulative upload quota per tenant (0 = unlimited)")
	retention := fs.Int("upload-retention", 0,
		"per-upload verbatim report lists retained per tenant (0 = 64)")
	sampleRate := fs.Float64("sample", 0,
		"default per-variable sampling rate for uploads (0 = precise; requests override with ?sample=)")
	sampleSeed := fs.Uint64("sample-seed", 0,
		"sampling seed for uploads without ?sample_seed= (0 = library default)")
	tenantSamples := fs.String("tenant-samples", "",
		"per-tenant sampling rates as comma-separated tenant:rate pairs (\"prod:0.01,staging:1\")")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long to wait for in-flight uploads on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "vft-server: usage: vft-server [flags] (no arguments)")
		return 2
	}
	tenantRates, err := parseTenantSamples(*tenantSamples)
	if err != nil {
		fmt.Fprintln(stderr, "vft-server:", err)
		return 2
	}
	if *sampleRate < 0 || *sampleRate > 1 {
		fmt.Fprintf(stderr, "vft-server: -sample must be in [0, 1], got %v\n", *sampleRate)
		return 2
	}

	reg := obs.NewRegistry()
	obs.Publish("vft-server", reg)
	srv := ingest.New(ingest.Config{
		MaxInFlight:       *maxInFlight,
		QueueWait:         *queueWait,
		RetryAfter:        *retryAfter,
		MaxBodyBytes:      *maxBody,
		MaxOpsPerUpload:   *maxOps,
		MaxReportsPerVar:  *maxReportsPerVar,
		TenantReportQuota: *reportQuota,
		TenantMaxBytes:    *tenantBytes,
		TenantMaxStreams:  *tenantStreams,
		UploadRetention:   *retention,
		DefaultSampleRate: *sampleRate,
		TenantSampleRates: tenantRates,
		SampleSeed:        *sampleSeed,
		Metrics:           reg,
	})

	if *statePath != "" {
		f, err := os.Open(*statePath)
		switch {
		case err == nil:
			err = srv.LoadState(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(stderr, "vft-server:", err)
				return 2
			}
			fmt.Fprintf(stderr, "vft-server: restored tenant state from %s\n", *statePath)
		case os.IsNotExist(err):
			// First boot: nothing to restore.
		default:
			fmt.Fprintln(stderr, "vft-server:", err)
			return 2
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "vft-server:", err)
		return 2
	}
	// Catch the shutdown signals before announcing the address: a
	// supervisor may send SIGTERM as soon as it reads the line.
	sig, stopSignals := serverSignals()
	defer stopSignals()
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "vft-server: serving on http://%s (POST /v1/traces, GET /v1/reports; /metrics, /healthz)\n",
		ln.Addr())

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "vft-server:", err)
		return 2
	case <-sig:
	}

	fmt.Fprintln(stdout, "vft-server: draining (accepted uploads complete, new uploads get 503)")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err = srv.Drain(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(stderr, "vft-server:", err)
		return 2
	}
	// Drained: stop the listener. In-flight requests are already done, so
	// a short shutdown window only covers response flushing.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	cancel()

	if *statePath != "" {
		if err := writeState(*statePath, srv.SaveState); err != nil {
			fmt.Fprintln(stderr, "vft-server:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-server: saved tenant state to %s\n", *statePath)
	}
	snap := srv.Registry().Snapshot()
	fmt.Fprintf(stdout, "vft-server: drained cleanly (%d uploads completed, %d rejected saturated, %d bytes read)\n",
		snap.Counters["ingest.uploads.completed"],
		snap.Counters["ingest.rejected.saturated"],
		snap.Counters["ingest.bytes.read"])
	return 0
}

// writeState saves state to path through a temporary file in the same
// directory, synced and then renamed over path, so a save that fails or is
// killed part-way leaves the previous state file as it was.
func writeState(path string, save func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
