package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric of the benchmark contract. BENCHMARK.json at the
// repository root carries the same table; TestContractAgreesWithBenchmarkJSON
// keeps the two identical in both directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the client-observed metrics, reported by every workload from
// the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"stall_ms_p50", "ms", "lower", 0.25},
	{"stall_ms_p95", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kib_per_op", "KiB", "lower", 0.06},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run, named by the
// module they measure. None of them gates a change; a metric a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "fail_share", Unit: "share", Better: "lower"},
	{Name: "quality.virtual_latency_reduction_pct", Unit: "%", Better: "higher"},
	{Name: "quality.accuracy_pct", Unit: "%", Better: "higher"},
	{Name: "quality.hit_pct", Unit: "%", Better: "higher"},

	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.wire_us_per_op", Unit: "us", Better: "lower"},
	{Name: "transport.dial_us_p50", Unit: "us", Better: "lower"},

	{Name: "protocol.client_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "protocol.server_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "protocol.decode_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "protocol.hello_us_p50", Unit: "us", Better: "lower"},

	{Name: "core.allocate_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.allocate_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.upload_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.upload_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.open_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.delta_cells_per_op", Unit: "count", Better: "lower"},
	{Name: "core.delta_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "core.upload_cells_per_op", Unit: "count", Better: "lower"},
	{Name: "core.full_delta_share", Unit: "share", Better: "lower"},
	{Name: "core.apply_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.begin_round_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.end_round_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.infer_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "core.server_build_s", Unit: "s", Better: "lower"},

	{Name: "gtable.merge_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "gtable.extract_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "gtable.merge_peer_ns_per_cell", Unit: "ns", Better: "lower"},

	{Name: "cache.probe_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "cache.probes_per_frame", Unit: "count", Better: "lower"},
	{Name: "cache.entries_per_probe", Unit: "count", Better: "lower"},
	{Name: "cache.hit_share", Unit: "share", Better: "higher"},
	{Name: "cache.new_local_us", Unit: "us", Better: "lower"},

	{Name: "vecmath.cosines_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "vecmath.widen_ns_per_vec", Unit: "ns", Better: "lower"},

	{Name: "semantics.sample_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "semantics.predict_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "semantics.space_build_s", Unit: "s", Better: "lower"},
	{Name: "stream.next_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "federation.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "federation.sync_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "federation.antientropy_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "federation.cells_sent_per_tick", Unit: "count", Better: "lower"},
	{Name: "federation.sync_kib_per_tick", Unit: "KiB", Better: "lower"},
	{Name: "federation.digest_kib_per_round", Unit: "KiB", Better: "lower"},
	{Name: "federation.pull_kib_per_round", Unit: "KiB", Better: "lower"},
	{Name: "federation.repaired_cells_per_round", Unit: "count", Better: "lower"},
	{Name: "federation.sync_errors", Unit: "count", Better: "lower"},
	{Name: "federation.quiesce_ticks", Unit: "count", Better: "lower"},

	{Name: "routing.redirect_us_p50", Unit: "us", Better: "lower"},
	{Name: "routing.admit_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "routing.redirects_per_op", Unit: "count", Better: "lower"},
	{Name: "overload.sheds_per_kop", Unit: "count", Better: "lower"},
	{Name: "overload.deadline_expired_per_kop", Unit: "count", Better: "lower"},

	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},

	{Name: "loadgen.record_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.budget_gap_pct", Unit: "%", Better: "lower"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*bench) error
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`

	// samples counts the observations behind each percentile metric; shown
	// beside it in the human-readable listing.
	samples map[string]int
	// problems lists every failed output check; notes are outputs a workload
	// checks that are not metrics of the run's mode, shown in the listing.
	problems, notes []string
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]measurement{}, samples: map[string]int{}}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// seal keeps exactly the metrics of defs: one that a workload does not
// exercise reads 0 when zeroFill is set and is an error otherwise, and a
// value that is not a finite number is always an error.
func (r *report) seal(defs []metricDef, values map[string]float64, zeroFill bool) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !zeroFill {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = measurement{Value: v, Unit: d.Unit}
	}
	return nil
}

func (r *report) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank, 0 when
// there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns Python's statistics.quantiles(v, n=4) (the exclusive
// method) — the rule the repeatability check is specified in. v needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
