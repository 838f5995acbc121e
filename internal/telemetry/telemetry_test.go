package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	snap := r.Snapshot()
	if v := snap.Value("c_total"); v != 42 {
		t.Fatalf("snapshot c_total = %v, want 42", v)
	}
	if v := snap.Value("g"); v != 4 {
		t.Fatalf("snapshot g = %v, want 4", v)
	}
	if v := snap.Value("absent"); v != 0 {
		t.Fatalf("snapshot absent = %v, want 0", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 2, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 110.5 {
		t.Fatalf("sum = %v, want 110.5", h.Sum())
	}
	snap := r.Snapshot()
	// Cumulative buckets: ≤1 holds {0.5, 1}, ≤5 adds {2}, ≤10 adds {7},
	// +Inf adds {100}.
	for _, tc := range []struct {
		label string
		want  float64
	}{
		{`le="1"`, 2}, {`le="5"`, 3}, {`le="10"`, 4}, {`le="+Inf"`, 5},
	} {
		if v := snap.Labeled("h_seconds_bucket", tc.label); v != tc.want {
			t.Fatalf("bucket %s = %v, want %v", tc.label, v, tc.want)
		}
	}
	if v := snap.Value("h_seconds_count"); v != 5 {
		t.Fatalf("count sample = %v, want 5", v)
	}
}

func TestCounterVecGrowthAndLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits_total", "vec", "site")
	v.Inc(5)
	v.Add(0, 3)
	v.Inc(5)
	if got := v.Load(5); got != 2 {
		t.Fatalf("slot 5 = %d, want 2", got)
	}
	if got := v.Load(99); got != 0 {
		t.Fatalf("untouched slot = %d, want 0", got)
	}
	snap := r.Snapshot()
	if got := snap.Labeled("hits_total", `site="0"`); got != 3 {
		t.Fatalf(`site="0" = %v, want 3`, got)
	}
	if got := snap.Labeled("hits_total", `site="5"`); got != 2 {
		t.Fatalf(`site="5" = %v, want 2`, got)
	}
	if got := snap.Value("hits_total"); got != 5 {
		t.Fatalf("summed vec = %v, want 5", got)
	}
}

func TestGaugeVecMove(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("members", "vec", "state", "alive", "dead")
	v.Inc(0)
	v.Inc(0)
	v.Move(0, 1)
	if a, d := v.Load(0), v.Load(1); a != 1 || d != 1 {
		t.Fatalf("after move: alive=%d dead=%d, want 1 1", a, d)
	}
	v.Move(1, 1) // no-op
	if d := v.Load(1); d != 1 {
		t.Fatalf("self-move changed value: %d", d)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

// TestRecordPathsAllocFree pins the zero-alloc contract of every record
// path, matching the AllocsPerRun discipline of the serve-path hot loops
// these instruments are wired into.
func TestRecordPathsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	g := r.Gauge("g", "gauge")
	h := r.Histogram("h", "histogram", LatencySecondsBuckets)
	cv := r.CounterVec("cv_total", "counter vec", "site")
	gv := r.GaugeVec("gv", "gauge vec", "state", "a", "b", "c")
	cv.Inc(7) // pre-grow: slot growth is registration-time work

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { c.Inc() }},
		{"counter-add", func() { c.Add(3) }},
		{"gauge-set", func() { g.Set(5) }},
		{"gauge-add", func() { g.Add(-1) }},
		// Inc/Dec are the tombstone gauge's record paths on the
		// anti-entropy plane; pin them independently of Add.
		{"gauge-inc", func() { g.Inc() }},
		{"gauge-dec", func() { g.Dec() }},
		{"histogram-observe", func() { h.Observe(0.0042) }},
		{"countervec-inc", func() { cv.Inc(7) }},
		{"gaugevec-move", func() { gv.Move(0, 2) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}

// newRecordOp returns one op's worth of instrumentation — a counter Inc, a
// CounterVec Inc on a warm slot, a gauge Set and a histogram Observe — on a
// private registry, with every vec slot it drives already warm.
func newRecordOp() func(n int) {
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "ops")
	cv := r.CounterVec("bench_outcomes_total", "outcomes by cause", "cause", "a", "b", "c")
	g := r.Gauge("bench_inflight", "inflight")
	h := r.Histogram("bench_latency_seconds", "latency", LatencySecondsBuckets)
	record := func(n int) {
		c.Inc()
		cv.Inc(n % 3)
		g.Set(int64(n & 0xff))
		h.Observe(float64(n&0xff) / 1e4)
	}
	for n := 0; n < 3; n++ {
		record(n)
	}
	return record
}

// TestTelemetryRecordAllocs pins the combined per-op record path the
// benchmark below drives at zero allocations.
func TestTelemetryRecordAllocs(t *testing.T) {
	record := newRecordOp()
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		record(n)
		n++
	})
	if allocs != 0 {
		t.Fatalf("telemetry record path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkTelemetryRecord measures one op of newRecordOp: the per-request
// budget an instrumented hot path pays, far below what a wall-clock run
// resolves. The path is pinned allocation-free by TestTelemetryRecordAllocs.
func BenchmarkTelemetryRecord(b *testing.B) {
	record := newRecordOp()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		record(n)
	}
}

// TestExpositionGolden locks the Prometheus text format byte-for-byte on
// a registry with one instrument of each kind.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_ops_total", "operations")
	g := r.Gauge("demo_depth", "queue depth")
	h := r.Histogram("demo_latency_seconds", "op latency", []float64{0.25, 0.5})
	v := r.CounterVec("demo_hits_total", "hits by site", "site")
	c.Add(3)
	g.Set(-2)
	h.Observe(0.1)
	h.Observe(0.3)
	h.Observe(9)
	v.Add(1, 4)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP demo_depth queue depth",
		"# TYPE demo_depth gauge",
		"demo_depth -2",
		"# HELP demo_hits_total hits by site",
		"# TYPE demo_hits_total counter",
		`demo_hits_total{site="0"} 0`,
		`demo_hits_total{site="1"} 4`,
		"# HELP demo_latency_seconds op latency",
		"# TYPE demo_latency_seconds histogram",
		`demo_latency_seconds_bucket{le="0.25"} 1`,
		`demo_latency_seconds_bucket{le="0.5"} 2`,
		`demo_latency_seconds_bucket{le="+Inf"} 3`,
		"demo_latency_seconds_sum 9.4",
		"demo_latency_seconds_count 3",
		"# HELP demo_ops_total operations",
		"# TYPE demo_ops_total counter",
		"demo_ops_total 3",
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTracerGolden pins the JSON-lines event encoding under a fixed clock.
func TestTracerGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(func() time.Time {
		return time.Date(2026, 8, 8, 12, 0, 0, 500000000, time.UTC)
	})
	tr.Emit("peer_sync",
		Int("peer", 2),
		Str("addr", `127.0.0.1:9000`),
		Int64("bytes", 4096),
		F64("seconds", 0.25),
		Bool("ok", true),
	)
	tr.Emit("member_state", Str("from", "alive"), Str("to", "suspect"), Str("note", "a\"b\\c\nd"))
	want := `{"ts":"2026-08-08T12:00:00.5Z","event":"peer_sync","peer":2,"addr":"127.0.0.1:9000","bytes":4096,"seconds":0.25,"ok":true}` + "\n" +
		`{"ts":"2026-08-08T12:00:00.5Z","event":"member_state","from":"alive","to":"suspect","note":"a\"b\\c\nd"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("trace mismatch:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestSetTracerGlobal(t *testing.T) {
	if Trace() != nil {
		t.Fatal("tracer unexpectedly installed at test start")
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	SetTracer(tr)
	defer SetTracer(nil)
	if Trace() != tr {
		t.Fatal("Trace() did not return the installed tracer")
	}
	Trace().Emit("ping")
	if !strings.Contains(buf.String(), `"event":"ping"`) {
		t.Fatalf("emitted line missing event: %q", buf.String())
	}
	SetTracer(nil)
	if Trace() != nil {
		t.Fatal("SetTracer(nil) did not uninstall")
	}
}

// TestConcurrentWriters hammers every instrument kind from many
// goroutines while snapshots and exposition run concurrently; run under
// -race this is the registry's data-race proof, and the final counts
// prove no update was lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "counter")
	g := r.Gauge("cg", "gauge")
	h := r.Histogram("ch", "histogram", []float64{1, 2, 4, 8})
	cv := r.CounterVec("ccv_total", "vec", "site")
	gv := r.GaugeVec("cgv", "vec", "state", "x", "y")

	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 10))
				cv.Inc(i % 17) // races growth against recording
				gv.Move(0, 1)
				gv.Move(1, 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = r.WriteText(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	<-done

	const total = writers * perG
	if got := c.Load(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := g.Load(); got != total {
		t.Fatalf("gauge = %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	var vecSum uint64
	for i := 0; i < 17; i++ {
		vecSum += cv.Load(i)
	}
	if vecSum != total {
		t.Fatalf("vec sum = %d, want %d", vecSum, total)
	}
	if x, y := gv.Load(0), gv.Load(1); x+y != 0 {
		t.Fatalf("gauge vec drifted: x=%d y=%d", x, y)
	}
}

// TestDefaultRegistryWired asserts the per-tier instruments are
// registered on the default registry and visible in Snapshot().
func TestDefaultRegistryWired(t *testing.T) {
	snap := Snapshot()
	for _, name := range []string{
		"coca_core_allocations_total",
		"coca_cache_probe_hits_total",
		"coca_federation_members",
		"coca_routing_breakers",
		"coca_engine_round_duration_seconds_count",
	} {
		found := false
		for _, s := range snap {
			if s.Name == name {
				found = true
				break
			}
		}
		// Vector instruments with no touched slots collect nothing; touch
		// guards for those live in the tier tests. Only the always-present
		// scalars are asserted here.
		if !found && name != "coca_cache_probe_hits_total" {
			t.Errorf("default snapshot missing %s", name)
		}
	}
}
