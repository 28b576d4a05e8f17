package verifiedft

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// Metrics is a registry of contention-free metric instruments. Attach one
// to CheckTrace (or CheckSource, CheckReader) with WithMetrics: once the
// check ends, the detector's own counters (rule firings, fast/slow-path
// splits, shadow-table occupancy) are registered in it, frozen, under the
// variant name. A Metrics value is safe to read concurrently with the run
// — Snapshot only touches atomic instruments and frozen sources.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time reading of a Metrics registry; it
// marshals to the JSON shape served by the tools' -metrics-addr endpoints.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metric registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// StatsSource is the optional observability extension of Detector: every
// detector returned by New implements it. Stats must be called at
// quiescence (no handler running); see the core package for the contract.
type StatsSource = core.StatsSource

// settings aggregates everything the option types can configure. New and
// CheckTrace each start from their own defaults and read the subset that
// concerns them.
type settings struct {
	variant   string
	maxPerVar int // WithMaxReportsPerVar's cap
	parties   map[LockID]int
	chancaps  map[LockID]int
	metrics   *Metrics
	// sampling is the WithSampling policy; nil is the precise tier. The
	// "sampled[:rate]" variant spelling also sets it, via resolveSampling.
	sampling *sample.Policy
}

// resolveSampling folds the "sampled[:rate]" variant spelling into the
// base variant plus a sampling policy and validates the resulting rate,
// erroring at the New/CheckTrace entry points. An explicit WithSampling
// wins over a rate embedded in the variant name.
func (s *settings) resolveSampling() error {
	var rate *float64
	var seed uint64
	if s.sampling != nil {
		rate, seed = &s.sampling.Rate, s.sampling.Seed
	}
	base, pol, err := sample.Resolve(s.variant, rate, seed)
	if err != nil {
		return err
	}
	if rate != nil {
		pol.Seed = seed // WithSamplingSeed(0) is the seed 0, not "unset"
	}
	s.variant, s.sampling = base, pol
	return nil
}

// extensions folds the out-of-band trace parameters into the form the
// validation and lowering stages consume; nil when every default applies.
func (s *settings) extensions() *trace.Extensions {
	if s.parties == nil && s.chancaps == nil {
		return nil
	}
	return &trace.Extensions{BarrierParties: s.parties, ChanCapacity: s.chancaps}
}

// Option configures New.
type Option interface{ applyNew(*settings) }

// CheckOption configures CheckTrace.
type CheckOption interface{ applyCheck(*settings) }

// CommonOption is an option accepted by both New and CheckTrace
// (WithMaxReportsPerVar, WithSampling).
type CommonOption interface {
	Option
	CheckOption
}

type checkOption func(*settings)

func (f checkOption) applyCheck(s *settings) { f(s) }

type commonOption func(*settings)

func (f commonOption) applyNew(s *settings)   { f(s) }
func (f commonOption) applyCheck(s *settings) { f(s) }

// WithVariant selects the detector variant CheckTrace replays the trace
// through (default V2). See the variant constants.
func WithVariant(variant string) CheckOption {
	return checkOption(func(s *settings) { s.variant = variant })
}

// WithBarrierParties sets the participant count per barrier id for barrier
// lowering (absent entries default to 2). Only traces containing
// BarrierArrive operations need it.
func WithBarrierParties(parties map[LockID]int) CheckOption {
	return checkOption(func(s *settings) { s.parties = parties })
}

// WithChanCapacities sets the buffer capacity per channel id (absent
// entries default to 0: an unbuffered channel). The capacities shape both
// feasibility — a send on a channel with buffer room completes at once,
// any other send blocks its thread until a receive — and the
// happens-before edges the lowering emits (the Go memory model's
// "the k-th receive happens before the (k+C)-th send completes"). Only
// traces containing channel operations need it.
func WithChanCapacities(caps map[LockID]int) CheckOption {
	return checkOption(func(s *settings) { s.chancaps = caps })
}

// WithMaxReportsPerVar caps race reports per variable, RoadRunner's
// warn-once discipline (0 = unlimited). Suppressed reports are counted, not
// silently lost: they appear as reports.dropped in the detector's stats.
//
// Quota precedence when checking through the ingestion service
// (internal/ingest, cmd/vft-server): this per-variable cap applies first,
// while the upload is being checked — a report it suppresses is never
// seen downstream. The reports that survive are then deduplicated into
// the tenant's depot (identical races collapse into one aggregate with a
// repetition count), and only then does the tenant-wide report quota
// apply, bounding *distinct* aggregated races: a fresh race beyond that
// quota is dropped and counted, while repeats of already-retained races
// keep aggregating regardless. The two caps are therefore complementary,
// not redundant — this one bounds per-upload noise from one hot variable,
// the tenant quota bounds long-term distinct-race retention.
func WithMaxReportsPerVar(n int) CommonOption {
	return commonOption(func(s *settings) { s.maxPerVar = n })
}

// WithMetrics attaches a metric registry to a check: when the trace ends,
// the detector's counters are frozen into m under the variant name. It
// counts, it does not time: the check runs the same detector with or
// without it. A detector built by New is handed to the caller mid-flight,
// so there the caller freezes stats itself once its run quiesces:
//
//	if ss, ok := d.(verifiedft.StatsSource); ok {
//		m.RegisterSource("v2", ss.Stats().Source())
//	}
func WithMetrics(m *Metrics) CheckOption {
	return checkOption(func(s *settings) { s.metrics = m })
}

// samplingConfig aggregates what SamplingOption can tune.
type samplingConfig struct {
	seed uint64
}

// SamplingOption tunes WithSampling.
type SamplingOption func(*samplingConfig)

// WithSamplingSeed sets the sampling seed (default sample.DefaultSeed's
// fixed value, 1). The per-variable decision is a pure function of
// (seed, variable id), so two runs with the same seed and rate — on one
// machine or across a fleet, online or offline — sample the same
// variables and report identically; distinct seeds give independent
// samples, which is how repeated deployments accumulate coverage.
func WithSamplingSeed(seed uint64) SamplingOption {
	return func(c *samplingConfig) { c.seed = seed }
}

// WithSampling selects the production-overhead sampling tier: each
// variable is kept with probability rate (decided once, deterministically
// from the seed), full epoch/vector-clock bookkeeping applies only to the
// kept variables, and an access to any other variable costs one
// shadow-word check — no clock is ever materialized for it. Reported
// races are always a subset of the precise tier's (at rate 1 exactly its
// report list, byte for byte); the tier trades recall for overhead, never
// precision. Rates outside [0, 1] error at New/CheckTrace time.
//
//	reports, err := verifiedft.CheckTrace(tr, verifiedft.WithSampling(0.01))
//	d, err := verifiedft.New(verifiedft.V2,
//		verifiedft.WithSampling(0.01, verifiedft.WithSamplingSeed(7)))
//
// The variant spelling "sampled" (vft-v2 at the 0.01 default rate) and
// "sampled:<rate>" select the same tier wherever variant names are
// parsed (WithVariant, vft-race -d, the server's ?variant=).
func WithSampling(rate float64, opts ...SamplingOption) CommonOption {
	return commonOption(func(s *settings) {
		c := samplingConfig{seed: sample.DefaultSeed}
		for _, o := range opts {
			o(&c)
		}
		s.sampling = &sample.Policy{Rate: rate, Seed: c.seed}
	})
}

// WithParallelism is accepted and ignored: every offline check runs the
// one sequential engine on the calling goroutine, whatever n is. Caller:
// bench/offline.go, bench/server.go, bench/bench_test.go (frozen with the
// benchmark); delete with the next `benchmark` PR.
func WithParallelism(int) CheckOption {
	return checkOption(func(*settings) {})
}

// Unwrap returns d. Caller: bench/online.go (frozen with the benchmark);
// delete with the next `benchmark` PR.
func Unwrap(d Detector) Detector { return d }
