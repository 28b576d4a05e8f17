// Package ingest implements the multi-tenant trace-ingestion service
// behind cmd/vft-server: a long-running HTTP front end that accepts
// concurrent binary/gzip/text trace streams, checks each upload through
// the streaming offline check path (internal/parcheck) with bounded
// memory, and serves the resulting race reports as JSON.
//
// The flow per upload is the offline checker's flow, wrapped in admission
// control:
//
//	POST /v1/traces?tenant=T&variant=V[&parties=id:n,...][&chancap=id:c,...]
//	  → admission (drain flag, in-flight slots, tenant quotas)
//	  → trace.NewDecoder (sniffs gzip / binary "VFTb" / text)
//	  → parcheck.CheckSource (batches of decoded ops, each validated,
//	    lowered and renumbered in one switch and handed to the variant's
//	    detector on the handler's goroutine, under the per-upload
//	    operation budget; memory bounded by the ids an upload names, not
//	    their magnitude)
//	  → per-tenant depot (interned dedup/aggregation) + retained result
//
// Precision is the product (PAPER.md): the service must return exactly
// the reports an offline CheckTrace of the same bytes would, so nothing
// in this package filters, reorders or rewrites reports — the depot
// aggregates a *copy* for the tenant-wide view, and the per-upload view
// keeps the checker's report list verbatim. The end-to-end suite pins
// byte-for-byte parity under concurrent multi-tenant load.
//
// Backpressure is explicit rather than accidental: a bounded in-flight
// semaphore (optionally with a bounded wait) turns saturation into
// 429 + Retry-After instead of memory growth, and Drain turns SIGTERM
// into "finish every accepted upload, reject new ones with 503" so a
// restart loses nothing that was admitted.
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parcheck"
	"repro/internal/sample"
	"repro/internal/trace"
)

// Config sizes the service. The zero value of any field falls back to the
// DefaultConfig value, so callers override only what they mean to.
type Config struct {
	// MaxInFlight bounds concurrently checked uploads; admission beyond
	// it queues (see QueueWait) and then fails with 429 + Retry-After.
	MaxInFlight int
	// QueueWait is how long an upload may wait for an in-flight slot
	// before 429. Zero means reject immediately when saturated; the
	// queue itself is bounded by MaxInFlight (at most one waiter per
	// already-admitted upload) so waiting cannot grow without bound.
	QueueWait time.Duration
	// RetryAfter is the advertised Retry-After on 429/503 responses.
	RetryAfter time.Duration

	// MaxBodyBytes caps one upload's wire bytes (compressed, as read off
	// the socket); past it the upload fails with 413.
	MaxBodyBytes int64
	// MaxOpsPerUpload caps one upload's decoded (pre-lowering) trace
	// operations; past it the upload fails with 413 rather than silently
	// truncating (parcheck.Options.MaxOps).
	MaxOpsPerUpload int

	// MaxReportsPerVar caps reports per variable within one upload's
	// check, exactly like verifiedft.WithMaxReportsPerVar (0 =
	// unlimited). See the quota ladder below for how it composes with
	// TenantReportQuota.
	MaxReportsPerVar int

	// TenantReportQuota caps the *distinct* aggregated races the depot
	// retains per tenant (0 = unlimited). The quota ladder an occurrence
	// climbs is: MaxReportsPerVar first (per variable, per upload, while
	// checking), then depot dedup (identical races collapse into one
	// aggregate with a count), then TenantReportQuota (fresh races
	// beyond it are dropped and counted, repeats still aggregate).
	TenantReportQuota int
	// TenantMaxBytes caps a tenant's cumulative accepted wire bytes
	// (0 = unlimited); past it further uploads fail with 429.
	TenantMaxBytes int64
	// TenantMaxStreams caps a tenant's cumulative accepted uploads
	// (0 = unlimited); past it further uploads fail with 429.
	TenantMaxStreams int
	// UploadRetention is how many per-upload verbatim report lists each
	// tenant retains for GET /v1/reports?upload= (oldest evicted first;
	// the aggregated depot view is unaffected by eviction).
	UploadRetention int

	// DefaultSampleRate, when positive, checks every upload through the
	// sampling tier at this per-variable rate unless the request says
	// otherwise. Zero (the default) means uploads are checked precisely.
	// The per-upload precedence is: ?sample= query parameter, then a
	// "sampled:<rate>" variant spelling, then TenantSampleRates, then
	// this field.
	DefaultSampleRate float64
	// TenantSampleRates overrides DefaultSampleRate per tenant. An entry
	// applies sampling at that rate (including an explicit 0, which
	// suppresses every access, and 1, which is report-identical to the
	// precise tier).
	TenantSampleRates map[string]float64
	// SampleSeed keys the per-variable sampling hash for uploads that do
	// not carry a ?sample_seed= parameter. Zero means sample.DefaultSeed,
	// keeping server-side decisions byte-identical to an offline
	// CheckTrace of the same bytes at the same rate.
	SampleSeed uint64

	// Metrics receives the service's instruments; nil creates a private
	// registry (reachable via Registry).
	Metrics *obs.Registry
}

// DefaultConfig returns the production defaults: admission sized to the
// machine, generous but finite upload limits, unlimited tenant quotas.
func DefaultConfig() Config {
	return Config{
		MaxInFlight:     2 * runtime.GOMAXPROCS(0),
		QueueWait:       0,
		RetryAfter:      time.Second,
		MaxBodyBytes:    128 << 20,
		MaxOpsPerUpload: 50_000_000,
		UploadRetention: 64,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxOpsPerUpload <= 0 {
		c.MaxOpsPerUpload = d.MaxOpsPerUpload
	}
	if c.UploadRetention <= 0 {
		c.UploadRetention = d.UploadRetention
	}
	return c
}

// UploadResult is one accepted upload's outcome — the POST response body
// and the GET ?upload= body.
type UploadResult struct {
	Tenant  string   `json:"tenant"`
	Upload  int      `json:"upload"`
	Variant string   `json:"variant"`
	Ops     int      `json:"ops"`
	Bytes   int64    `json:"bytes"`
	Races   int      `json:"races"`
	Reports []Report `json:"reports"`
	// SampleRate is the per-variable sampling rate the upload was checked
	// under; absent when the upload was checked precisely.
	SampleRate *float64 `json:"sample_rate,omitempty"`
}

// TenantReport is the aggregated per-tenant view served by GET
// /v1/reports?tenant=.
type TenantReport struct {
	Tenant     string      `json:"tenant"`
	Uploads    int         `json:"uploads"`
	Bytes      int64       `json:"bytes"`
	Distinct   int         `json:"distinct"`
	Dropped    uint64      `json:"dropped"`
	Aggregated []Aggregate `json:"aggregated"`
}

// tenant is one tenant's retained state.
type tenant struct {
	mu      sync.Mutex
	name    string
	nextID  int
	streams int   // accepted uploads (admission counter, monotonic)
	bytes   int64 // accepted wire bytes (admission counter, monotonic)
	depot   *Depot
	uploads []*UploadResult // retention ring, oldest first
}

// Server is the ingestion service. Construct with New, serve Handler.
type Server struct {
	cfg Config
	reg *obs.Registry

	slots    chan struct{} // in-flight slots: a semaphore of MaxInFlight
	inflight sync.WaitGroup
	draining atomic.Bool

	mu      sync.Mutex
	tenants map[string]*tenant

	mux *http.ServeMux

	// Instruments.
	cAccepted, cCompleted                   *obs.Counter
	cRejSaturated, cRejDraining             *obs.Counter
	cRejQuota, cRejInvalid, cRejLarge       *obs.Counter
	cBytes, cOps, cReports                  *obs.Counter
	cDeduped, cQuotaDropped, cPerVarDropped *obs.Counter
	cPanics                                 *obs.Counter
	gInflight, gQueue, gTenants             *obs.Gauge
	hLatency, hUploadOps                    *obs.Histogram
}

// New returns a server for cfg; zero Config fields take defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		tenants: map[string]*tenant{},

		cAccepted:      reg.Counter("ingest.uploads.accepted"),
		cCompleted:     reg.Counter("ingest.uploads.completed"),
		cRejSaturated:  reg.Counter("ingest.rejected.saturated"),
		cRejDraining:   reg.Counter("ingest.rejected.draining"),
		cRejQuota:      reg.Counter("ingest.rejected.quota"),
		cRejInvalid:    reg.Counter("ingest.rejected.invalid"),
		cRejLarge:      reg.Counter("ingest.rejected.too_large"),
		cBytes:         reg.Counter("ingest.bytes.read"),
		cOps:           reg.Counter("ingest.ops.decoded"),
		cReports:       reg.Counter("ingest.reports.recorded"),
		cDeduped:       reg.Counter("ingest.reports.deduped"),
		cQuotaDropped:  reg.Counter("ingest.reports.quota_dropped"),
		cPerVarDropped: reg.Counter("ingest.reports.per_var_dropped"),
		cPanics:        reg.Counter("ingest.panics"),
		gInflight:      reg.Gauge("ingest.inflight"),
		gQueue:         reg.Gauge("ingest.queue.depth"),
		gTenants:       reg.Gauge("ingest.tenants"),
		hLatency:       reg.Histogram("ingest.upload.ns"),
		hUploadOps:     reg.Histogram("ingest.upload.ops"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/reports", s.handleReports)
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/healthz", s.handleHealth)
	obs.HandleDebug(mux, reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
	})
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler: the /v1 API plus the
// standard observability mux (/metrics, /debug/vars, /debug/pprof/).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry the service's instruments live in.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain stops admitting uploads (new POSTs get 503 + Retry-After) and
// waits until every already-admitted upload has completed, or ctx
// expires. Read endpoints keep serving throughout, so a supervisor can
// collect final reports between Drain and process exit. Draining is
// idempotent and permanent: a drained server never admits again.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("ingest: drain: %w", ctx.Err())
	}
}

// tenantState returns (creating on first use) the named tenant.
func (s *Server) tenantState(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, depot: NewDepot(s.cfg.TenantReportQuota)}
		s.tenants[name] = t
		s.gTenants.Set(uint64(len(s.tenants)))
	}
	return t
}

// validTenant enforces the tenant-name grammar: 1–64 characters of
// [A-Za-z0-9._-]. Everything a URL or filesystem might mangle is out.
func validTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// variantKnown reports whether name is one of the five detector variants.
func variantKnown(name string) bool {
	for _, v := range core.Variants() {
		if v == name {
			return true
		}
	}
	return false
}

// errorBody is the uniform JSON error shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a client gone mid-write is not servable; ignore
}

// acquire admits one upload: it takes an in-flight slot, waiting up to
// QueueWait when saturated. ok=false means saturation (429); otherwise
// the caller must call the returned release exactly once.
func (s *Server) acquire() (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
	default:
		if s.cfg.QueueWait <= 0 {
			return nil, false
		}
		s.gQueue.Add(1)
		timer := time.NewTimer(s.cfg.QueueWait)
		select {
		case s.slots <- struct{}{}:
			s.gQueue.Sub(1)
			timer.Stop()
		case <-timer.C:
			s.gQueue.Sub(1)
			return nil, false
		}
	}
	s.inflight.Add(1)
	s.gInflight.Add(1)
	var once sync.Once
	release = func() {
		once.Do(func() {
			s.gInflight.Sub(1)
			<-s.slots
			s.inflight.Done()
		})
	}
	return release, true
}

// bodyReader counts wire bytes and enforces the per-upload byte cap with
// a distinguishable error (so the handler can answer 413, not 400).
type bodyReader struct {
	r    io.Reader
	n    int64
	max  int64
	over bool
}

var errBodyTooLarge = errors.New("upload body over byte limit")

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.max > 0 && b.n >= b.max {
		b.over = true
		return 0, errBodyTooLarge
	}
	if b.max > 0 && int64(len(p)) > b.max-b.n {
		p = p[:b.max-b.n]
	}
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// handleTraces is POST /v1/traces?tenant=...&variant=...: admit, decode,
// validate, lower and check one trace stream, then record the result
// under the tenant. Every response, success or failure, is JSON.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST /v1/traces")
		return
	}
	q := r.URL.Query()
	name := q.Get("tenant")
	if !validTenant(name) {
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest,
			"tenant must be 1-64 chars of [A-Za-z0-9._-], got %q", name)
		return
	}
	variant := q.Get("variant")
	if variant == "" {
		variant = "vft-v2"
	}
	variant, pol, err := sample.ParseVariant(variant)
	if err != nil {
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !variantKnown(variant) {
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest,
			"unknown detector variant %q (one of %v, or sampled[:rate])", variant, core.Variants())
		return
	}
	pol, err = s.resolveSampling(q, name, pol)
	if err != nil {
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ext, err := parseExtensions(q.Get("parties"), q.Get("chancap"))
	if err != nil {
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.draining.Load() {
		s.cRejDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	release, ok := s.acquire()
	if !ok {
		s.cRejSaturated.Inc()
		s.writeError(w, http.StatusTooManyRequests,
			"at capacity (%d uploads in flight)", s.cfg.MaxInFlight)
		return
	}
	defer release()
	// Re-check after admission: Drain flips the flag first and then waits
	// for slots, so an upload that raced past the first check but lost
	// the slot race must not start work the drainer will not wait for.
	if s.draining.Load() {
		s.cRejDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	ten := s.tenantState(name)
	if err := s.admitTenant(ten); err != nil {
		s.cRejQuota.Inc()
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	s.cAccepted.Inc()

	start := time.Now()
	body := &bodyReader{r: r.Body, max: s.cfg.MaxBodyBytes}
	res, herr := s.check(body, variant, ext, pol)
	s.cBytes.Add(uint64(body.n))
	ten.mu.Lock()
	ten.bytes += body.n
	ten.mu.Unlock()
	if herr != nil {
		if errors.Is(herr, errCheckPanic) {
			s.writeError(w, http.StatusInternalServerError, "%v", herr)
			return
		}
		if body.over {
			s.cRejLarge.Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"upload exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		var tooLong *trace.TooLongError
		if errors.As(herr, &tooLong) {
			s.cRejLarge.Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge, "%v", herr)
			return
		}
		var tooNew *trace.UnsupportedVersionError
		if errors.As(herr, &tooNew) {
			s.cRejInvalid.Inc()
			s.writeError(w, http.StatusBadRequest,
				"binary trace format version %d not supported (this server ingests %d..%d); upgrade this server to ingest it",
				tooNew.Got, tooNew.Min, tooNew.Max)
			return
		}
		s.cRejInvalid.Inc()
		s.writeError(w, http.StatusBadRequest, "%v", herr)
		return
	}

	res.Tenant = name
	res.Bytes = body.n
	s.commit(ten, res)
	s.cCompleted.Inc()
	s.cOps.Add(uint64(res.Ops))
	s.hUploadOps.Observe(uint64(res.Ops))
	s.hLatency.Observe(uint64(time.Since(start).Nanoseconds()))
	writeJSON(w, http.StatusOK, res)
}

// admitTenant reserves one stream slot under the tenant's cumulative
// quotas. Consumed quota is not refunded on a failed upload: a tenant
// streaming garbage spends its budget like one streaming traces.
func (s *Server) admitTenant(t *tenant) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.cfg.TenantMaxStreams > 0 && t.streams >= s.cfg.TenantMaxStreams {
		return fmt.Errorf("tenant %q exceeded its stream quota (%d uploads)",
			t.name, s.cfg.TenantMaxStreams)
	}
	if s.cfg.TenantMaxBytes > 0 && t.bytes >= s.cfg.TenantMaxBytes {
		return fmt.Errorf("tenant %q exceeded its byte quota (%d bytes)",
			t.name, s.cfg.TenantMaxBytes)
	}
	t.streams++
	return nil
}

// parseExtensions folds the parties= and chancap= query parameters into
// the trace extensions the validator and lowering consume. Both use the
// same grammar: comma-separated id:value pairs ("0:4,2:1"), where the id
// is a barrier or channel id and the value a participant count or buffer
// capacity. Empty parameters yield nil — the all-defaults extensions.
func parseExtensions(parties, chancap string) (*trace.Extensions, error) {
	pm, err := trace.ParseIDValues(parties, "parties", 1)
	if err != nil {
		return nil, err
	}
	cm, err := trace.ParseIDValues(chancap, "chancap", 0)
	if err != nil {
		return nil, err
	}
	if pm == nil && cm == nil {
		return nil, nil
	}
	return &trace.Extensions{BarrierParties: pm, ChanCapacity: cm}, nil
}

// resolveSampling resolves the per-upload sampling policy: the ?sample=
// query parameter wins, then a "sampled:<rate>" variant spelling
// (spelled), then the tenant's configured rate, then the server default.
// The seed is ?sample_seed= when present, else Config.SampleSeed, else the
// library default — so a server-side check stays byte-identical to an
// offline CheckTrace of the same bytes at the same rate and seed.
func (s *Server) resolveSampling(q map[string][]string, tenant string, spelled *sample.Policy) (*sample.Policy, error) {
	get := func(key string) string {
		if v := q[key]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	var rate *float64
	if raw := get("sample"); raw != "" {
		r, err := sample.ParseRate(raw) // its errors already carry the "sample:" prefix
		if err != nil {
			return nil, err
		}
		rate = &r
	} else if spelled != nil {
		rate = &spelled.Rate
	} else if r, ok := s.cfg.TenantSampleRates[tenant]; ok {
		rate = &r
	} else if s.cfg.DefaultSampleRate > 0 {
		rate = &s.cfg.DefaultSampleRate
	}
	seed := s.cfg.SampleSeed
	if raw := get("sample_seed"); raw != "" {
		var err error
		if seed, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, fmt.Errorf("sample_seed: bad seed %q", raw)
		}
	}
	_, pol, err := sample.Resolve("", rate, seed)
	return pol, err
}

// errCheckPanic marks a panic in one upload's check, recovered so that it
// fails that upload alone (500), not the process and every tenant's state.
var errCheckPanic = errors.New("internal error checking the upload")

// check runs one stream through decode → parcheck (validation, lowering,
// renumbering and the operation budget in one pass) and returns the
// upload result (Tenant/Upload/Bytes unset).
// A non-nil pol checks the upload through the sampling tier; the
// decisions are a pure function of (seed, variable id), so the reports
// are exactly what an offline sampled check of the same bytes returns.
// A panic becomes errCheckPanic, counted in ingest.panics, stack logged.
func (s *Server) check(body io.Reader, variant string, ext *trace.Extensions, pol *sample.Policy) (res *UploadResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.cPanics.Inc()
			log.Printf("ingest: panic checking an upload: %v\n%s", v, debug.Stack())
			res, err = nil, fmt.Errorf("%w: %v", errCheckPanic, v)
		}
	}()
	dec, err := trace.NewDecoder(body)
	if err != nil {
		return nil, err
	}
	reports, ops, err := parcheck.CheckSource(dec, ext, parcheck.Options{
		Variant:          variant,
		MaxOps:           s.cfg.MaxOpsPerUpload,
		MaxReportsPerVar: s.cfg.MaxReportsPerVar,
		StatsSink:        s.foldParcheck,
		Sampling:         pol,
	})
	if err != nil {
		return nil, err
	}
	res = &UploadResult{
		Variant: variant,
		Ops:     ops, // decoded, pre-lowering
		Races:   len(reports),
		Reports: FromCoreAll(reports),
	}
	if pol != nil {
		rate := pol.Rate
		res.SampleRate = &rate
	}
	return res, nil
}

// foldParcheck accumulates one check's parcheck stats into the service
// registry (counters only — the per-run gauges would just thrash). The
// checker's per-var cap drops also feed the service-level
// ingest.reports.per_var_dropped counter, completing the quota ladder's
// first rung in /metrics.
func (s *Server) foldParcheck(snap obs.Snapshot) {
	for k, v := range snap.Counters {
		if v == 0 {
			continue
		}
		s.reg.Counter("parcheck." + k).Add(v)
		if k == "reports.dropped" {
			s.cPerVarDropped.Add(v)
		}
	}
}

// commit records a successful upload under its tenant: assign the upload
// id, retain the verbatim result (bounded by UploadRetention), and fold
// every report into the depot.
func (s *Server) commit(t *tenant, res *UploadResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	res.Upload = t.nextID
	t.uploads = append(t.uploads, res)
	if over := len(t.uploads) - s.cfg.UploadRetention; over > 0 {
		t.uploads = append(t.uploads[:0], t.uploads[over:]...)
	}
	var fresh, deduped, dropped uint64
	for _, r := range res.Reports {
		f, kept := t.depot.Add(res.Upload, r.Core())
		switch {
		case f && kept:
			fresh++
		case !f:
			deduped++
		default:
			dropped++
		}
	}
	s.cReports.Add(uint64(len(res.Reports)))
	s.cDeduped.Add(deduped)
	s.cQuotaDropped.Add(dropped)
}

// handleReports serves GET /v1/reports?tenant=T (aggregated depot view)
// and GET /v1/reports?tenant=T&upload=N (one upload's verbatim reports).
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET /v1/reports")
		return
	}
	q := r.URL.Query()
	name := q.Get("tenant")
	if !validTenant(name) {
		s.writeError(w, http.StatusBadRequest,
			"tenant must be 1-64 chars of [A-Za-z0-9._-], got %q", name)
		return
	}
	s.mu.Lock()
	ten := s.tenants[name]
	s.mu.Unlock()
	if ten == nil {
		s.writeError(w, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	if uploadArg := q.Get("upload"); uploadArg != "" {
		id, err := strconv.Atoi(uploadArg)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad upload id %q", uploadArg)
			return
		}
		ten.mu.Lock()
		var res *UploadResult
		for _, u := range ten.uploads {
			if u.Upload == id {
				res = u
				break
			}
		}
		ten.mu.Unlock()
		if res == nil {
			s.writeError(w, http.StatusNotFound,
				"tenant %q has no retained upload %d", name, id)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	ten.mu.Lock()
	rep := TenantReport{
		Tenant:     name,
		Uploads:    ten.nextID,
		Bytes:      ten.bytes,
		Distinct:   ten.depot.Len(),
		Dropped:    ten.depot.Dropped(),
		Aggregated: ten.depot.Aggregates(),
	}
	ten.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// handleTenants serves GET /v1/tenants: the sorted tenant names.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET /v1/tenants")
		return
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, struct {
		Tenants []string `json:"tenants"`
	}{Tenants: names})
}

// healthBody is the /healthz response.
type healthBody struct {
	Status   string `json:"status"`
	InFlight uint64 `json:"in_flight"`
}

// handleHealth serves GET /healthz: 200 "ok" while admitting, 503
// "draining" once Drain has begun (load balancers stop routing, readers
// keep working).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	b := healthBody{Status: "ok", InFlight: s.gInflight.Value()}
	code := http.StatusOK
	if s.draining.Load() {
		b.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, b)
}
