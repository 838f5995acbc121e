package coca

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"coca/internal/telemetry"
)

// TestMetricsExpositionTracksWorkload drives a wire fleet through the
// public API and asserts the telemetry tier saw it: the default-registry
// counters advance by at least the workload's known floor, the
// Prometheus /metrics page renders those series with matching values,
// and the trace sink records the session lifecycle. This is the
// in-process twin of the CI metrics-smoke job.
func TestMetricsExpositionTracksWorkload(t *testing.T) {
	before := telemetry.Snapshot()

	var traceBuf bytes.Buffer
	telemetry.SetTracer(telemetry.NewTracer(&traceBuf))
	defer telemetry.SetTracer(nil)

	ctx := context.Background()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}
	defer shutdown() // for the paths that fail before the one below

	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			_, errs[i] = cl.Run(ctx, 0)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Shutdown returns once every connection's serving goroutine has exited,
	// and the clients' goroutines have been waited for above: with the tracer
	// unset after that, nothing writes traceBuf while it is read below (a
	// session_close emitted as a connection wound down used to race it).
	shutdown()
	telemetry.SetTracer(nil)

	// serveOpts is 3 clients x 2 rounds: at least 3 opens+closes and 6
	// allocations/merges must have landed in the global registry.
	after := telemetry.Snapshot()
	grew := func(name string, min float64) {
		t.Helper()
		if d := after.Value(name) - before.Value(name); d < min {
			t.Errorf("%s grew by %v over the workload, want >= %v", name, d, min)
		}
	}
	grew("coca_core_session_opens_total", 3)
	grew("coca_core_session_closes_total", 3)
	grew("coca_core_allocations_total", 6)
	grew("coca_core_upload_merges_total", 6)
	if open := after.Value("coca_core_sessions_open") - before.Value("coca_core_sessions_open"); open != 0 {
		t.Errorf("coca_core_sessions_open drifted by %v across a closed workload", open)
	}

	// Scrape the exposition page and cross-check it against the snapshot.
	rec := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "# TYPE coca_core_allocations_total counter") {
		t.Fatalf("/metrics missing TYPE header for allocations:\n%s", body)
	}
	scraped := -1.0
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "coca_core_allocations_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			scraped = f
		}
	}
	if scraped < after.Value("coca_core_allocations_total") {
		t.Errorf("scraped allocations %v behind snapshot %v (counter went backwards?)",
			scraped, after.Value("coca_core_allocations_total"))
	}

	// The tracer saw the same lifecycle the counters did.
	trace := traceBuf.String()
	for _, ev := range []string{`"event":"session_open"`, `"event":"session_close"`} {
		if !strings.Contains(trace, ev) {
			t.Errorf("trace log missing %s; got:\n%s", ev, trace)
		}
	}
}
