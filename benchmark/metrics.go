package main

// metricDef names one metric. BENCHMARK.json lists the same names,
// units and bounds; TestBenchmarkJSONMatchesTables holds the two
// together.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	bound float64
	// exact marks a per-layer count that must repeat exactly between
	// two runs on the same seed; allocs marks the one count that may
	// drift by allocTolerance.
	exact, allocs bool
}

// allocTolerance is how far er.allocs may differ under -compare: the
// runtime's own background allocations are not the program's.
const allocTolerance = 0.02

// endToEnd is what a user of ermatch sees, per workload, taken from
// real child processes with no tracing.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "mpairs_per_s", unit: "Mpairs/s", better: "higher", bound: 0.25},
	{name: "kentities_per_s", unit: "kentities/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is the traced run's table, one block per module.
var perLayer = []metricDef{
	{name: "entity.ingest_s", unit: "s", better: "lower"},
	{name: "entity.ingest_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "entity.rows", unit: "count", better: "higher", exact: true},

	{name: "blocking.key_ns_per_entity", unit: "ns", better: "lower"},

	{name: "bdm.job_s", unit: "s", better: "lower"},
	{name: "bdm.blocks", unit: "count", better: "higher", exact: true},
	{name: "bdm.map_output_records", unit: "count", better: "lower", exact: true},

	{name: "core.plan_s", unit: "s", better: "lower"},
	{name: "core.map_emits", unit: "count", better: "lower", exact: true},
	{name: "core.replication", unit: "ratio", better: "lower", exact: true},
	{name: "core.reduce_max_share", unit: "ratio", better: "lower", exact: true},

	{name: "er.match_job_s", unit: "s", better: "lower"},
	{name: "er.match_job_nokernel_s", unit: "s", better: "lower"},
	{name: "er.sink_s", unit: "s", better: "lower"},
	{name: "er.matches", unit: "count", better: "higher", exact: true},
	{name: "er.allocs", unit: "count", better: "lower", allocs: true},
	{name: "er.alloc_mb", unit: "MB", better: "lower"},
	{name: "er.staged_wall_s", unit: "s", better: "lower"},
	{name: "er.residual_share", unit: "ratio", better: "lower"},

	{name: "similarity.kernel_s", unit: "s", better: "lower"},
	{name: "similarity.ns_per_pair", unit: "ns", better: "lower"},

	{name: "mapreduce.shuffle_s", unit: "s", better: "lower"},
	{name: "mapreduce.shuffle_records", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.ns_per_record", unit: "ns", better: "lower"},

	{name: "runio.spill_runs", unit: "count", better: "lower", exact: true},
	{name: "runio.spill_bytes_written", unit: "bytes", better: "lower", exact: true},
	{name: "runio.spill_bytes_read", unit: "bytes", better: "lower", exact: true},
	{name: "runio.spill_amp", unit: "ratio", better: "lower", exact: true},
	{name: "runio.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "runio.read_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "dist.overhead_s", unit: "s", better: "lower"},
	{name: "dist.fetch_bytes", unit: "bytes", better: "lower"},
	{name: "dist.attempts", unit: "count", better: "lower"},
	{name: "dist.retries", unit: "count", better: "lower"},

	{name: "env.calib_ms", unit: "ms", better: "lower"},
	{name: "env.calib_spread", unit: "ratio", better: "lower"},
}

// allMetrics lists the end-to-end metrics, then the per-layer ones.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// measured is one reported value. N, Median, IQR, Min and Samples
// describe the sample it was taken from, in the order taken; they are
// empty for counts.
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Median  float64   `json:"median,omitempty"`
	IQR     float64   `json:"iqr,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// sample summarises a sample as its median, with its spread.
func sample(unit string, vs []float64) measured {
	m := measured{Value: median(vs), Unit: unit, N: len(vs), Median: median(vs), IQR: iqr(vs), Samples: vs}
	if len(vs) > 0 {
		m.Min = sorted(vs)[0]
	}
	return m
}

// undisturbed summarises job timings as their first quartile. On this
// box interference only ever slows a job, in waves that last from
// seconds to a minute, so the lower quartile reads what the job costs
// when left alone as long as a quarter of the iterations were: in a
// 14-minute series of one job it held run-to-run spread to half the
// median's. The median is kept beside it.
func undisturbed(unit string, vs []float64) measured {
	m := sample(unit, vs)
	m.Value, _ = quartiles(vs)
	return m
}

// count reports a value that is not a sample.
func count(unit string, v float64) measured { return measured{Value: v, Unit: unit} }
