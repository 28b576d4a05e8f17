package main

import "repro/internal/spec"

// This file is the benchmark's vocabulary: every workload and metric name,
// with unit, direction and (end to end) regression bound. BENCHMARK.json
// at the repo root repeats it for the driver; a unit test keeps the two
// in step.

const (
	higher = "higher"
	lower  = "lower"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is how long one run measures by default, and BENCHMARK.json's
// run_seconds.
const runSeconds = 28

// workloadDefs are the workloads BENCHMARK.json names, one per system under
// test. The driver's time limit for all its runs leaves room for four at 28
// seconds each, and on a shared host a long run is worth more than a fifth
// workload (README.md, Steadiness).
var workloadDefs = []workloadDef{
	{"online-readshared", "16 threads sweep a main-initialized read-shared table with no locks: core's same-epoch fast paths and shadow do the work, vc and sync handlers almost none"},
	{"offline-syncdense", "32 threads, every access wrapped in a stripe lock, 10% Go-sync kinds, sequential CheckReader: validator, Lowerer, slow paths and clock joins dominate"},
	{"server-mixed", "real vft-server driven closed-loop by one client with a 2k/20k/200k-op, binary/gzip/text, 8-tenant upload mix: per-upload fixed costs and parcheck show"},
	{"vftgo-pool", "a stdlib-only worker-pool program taken from source to verdict by vft-go: the only workload where goinstr and the rt shim do the work"},
}

// sideWorkloads run by name, under `--workload all` and under `--aa` like
// the others, but the driver does not gate them: the opposite shape of each
// in-process workload above, and the parallel path over both offline inputs.
var sideWorkloads = []workloadDef{
	{"online-syncdense", "16 threads move values under 256 striped mutexes with helper fork/joins: Exclusive slow paths, acquire/release joins and vc dominate, fast paths rarely fire"},
	{"offline-accessdense", "binary trace of 1,024-access same-thread runs, sync under 0.5%, default sequential CheckReader: decode, validate and dispatch per op dominate"},
	{"offline-accessdense-par", "the same bytes through WithParallelism(2), the vft-run -parallel path, on run fusion's and the sharded checker's best case"},
	{"offline-syncdense-par", "the same bytes through WithParallelism(2): parcheck's serial prepass dominates, the shape where the parallel path loses to the sequential one"},
}

func allWorkloads() []workloadDef {
	return append(append([]workloadDef(nil), workloadDefs...), sideWorkloads...)
}

// endToEnd are the metrics a user of the system feels; every workload
// reports every one of them. A verdict is one kernel run to its report
// list, one CheckReader call, one answered upload or one `vft-go run`.
//
// The time bounds are the contract's cap: three times the widest ten-seed
// spread on the 2-vCPU host the baseline was cut on (8.4%, the server's
// latency; the in-process workloads hold 0.3%), and the driver's own runs
// of this benchmark's first version spread two to three times wider than
// that host's (README.md, "Steadiness"). Memory's bound is some five times
// its widest spread.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"events_per_s", "events/s", higher, 0.25},
	{"verdict_p50_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.15},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A layer
// that is not on a workload's path reports 0 there: it did no work.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{Name: "trace.decode_bin_ns_per_op", Unit: "ns", Better: lower},
		{Name: "trace.decode_gzip_ns_per_op", Unit: "ns", Better: lower},
		{Name: "trace.decode_text_ns_per_op", Unit: "ns", Better: lower},
		{Name: "trace.validate_ns_per_op", Unit: "ns", Better: lower},
		{Name: "trace.lower_ns_per_op", Unit: "ns", Better: lower},
		{Name: "trace.lowered_ops_ratio", Unit: "ratio", Better: lower},
		{Name: "trace.bytes_per_event", Unit: "B", Better: lower},

		{Name: "core.dispatch_ns_per_op", Unit: "ns", Better: lower},
		{Name: "core.slowdown_x", Unit: "ratio", Better: lower},
		{Name: "core.handler_ns_per_event", Unit: "ns", Better: lower},
		{Name: "core.fastpath_share", Unit: "fraction", Better: higher},
		{Name: "core.allocs_per_event", Unit: "count", Better: lower},
		{Name: "core.detector_new_us", Unit: "us", Better: lower},
	}
	for r := spec.Rule(1); r < spec.NumRules; r++ {
		better := lower
		if r == spec.ReadSameEpoch || r == spec.ReadSharedSameEpoch || r == spec.WriteSameEpoch {
			better = higher
		}
		ms = append(ms, metricDef{Name: "core.rule." + r.Key(), Unit: "count", Better: better})
	}
	return append(ms,
		metricDef{Name: "vc.join_ns_t16", Unit: "ns", Better: lower},
		metricDef{Name: "vc.copy_ns_t16", Unit: "ns", Better: lower},
		metricDef{Name: "vc.leq_ns_t16", Unit: "ns", Better: lower},

		metricDef{Name: "shadow.bytes_per_var", Unit: "B", Better: lower},

		metricDef{Name: "rtsim.base_events_per_s", Unit: "events/s", Better: higher},
		metricDef{Name: "rtsim.events.access", Unit: "count", Better: lower},
		metricDef{Name: "rtsim.events.sync", Unit: "count", Better: lower},

		metricDef{Name: "parcheck.check_ns_per_op_w1", Unit: "ns", Better: lower},
		metricDef{Name: "parcheck.check_ns_per_op_wP", Unit: "ns", Better: lower},
		metricDef{Name: "parcheck.par_speedup_x", Unit: "ratio", Better: higher},
		metricDef{Name: "parcheck.fused_ops_share", Unit: "fraction", Better: higher},
		metricDef{Name: "parcheck.batches", Unit: "count", Better: lower},
		metricDef{Name: "parcheck.shard_skew", Unit: "ratio", Better: lower},
		metricDef{Name: "parcheck.intern_hit_share", Unit: "fraction", Better: higher},
		metricDef{Name: "parcheck.queue_max_depth", Unit: "count", Better: lower},
		metricDef{Name: "parcheck.vc_joins_elided_share", Unit: "fraction", Better: higher},
		metricDef{Name: "parcheck.pool_recycled_share", Unit: "fraction", Better: higher},

		metricDef{Name: "ingest.uploads_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "ingest.verdict_p99_ms", Unit: "ms", Better: lower},
		metricDef{Name: "ingest.handler_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "ingest.http_overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "ingest.residual_ms", Unit: "ms", Better: lower},
		metricDef{Name: "ingest.reports_get_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "ingest.rejected_share", Unit: "fraction", Better: lower},
		metricDef{Name: "ingest.upload_bytes_mean", Unit: "B", Better: lower},
		metricDef{Name: "ingest.server_cpu_s", Unit: "s", Better: lower},

		metricDef{Name: "goinstr.instrument_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.build_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.run_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.plain_run_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.gorace_run_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.check_s", Unit: "s", Better: lower},
		metricDef{Name: "goinstr.slowdown_x", Unit: "ratio", Better: lower},
		metricDef{Name: "goinstr.events", Unit: "count", Better: lower},
		metricDef{Name: "goinstr.trace_bytes", Unit: "B", Better: lower},
		metricDef{Name: "goinstr.sites", Unit: "count", Better: lower},
		metricDef{Name: "goinstr.elision_rate", Unit: "fraction", Better: higher},
		metricDef{Name: "goinstr.dropped_events", Unit: "count", Better: lower},
		metricDef{Name: "goinstr.chan_timeouts", Unit: "count", Better: lower},

		metricDef{Name: "obs.metrics_on_overhead_x", Unit: "ratio", Better: lower},
		metricDef{Name: "sample.slowdown_x_r0.01", Unit: "ratio", Better: lower},

		metricDef{Name: "bench.host_speed_x", Unit: "ratio", Better: higher},
		metricDef{Name: "bench.trace_overhead_x", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.stage_sum_error", Unit: "fraction", Better: lower},
	)
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
