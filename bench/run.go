package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"coca/internal/telemetry"
)

// bench is the state of one workload run in this process.
type bench struct {
	sc     scale
	seed   uint64
	window time.Duration
	tr     *tracer // nil in the untraced run

	sys *system
	rep *report
	// vals collects metric values by name; report.seal picks the run's set.
	vals map[string]float64

	// measuring is set while a recorded window runs; workload code that
	// accumulates its own observations (quality sums, sync timings) checks it.
	measuring atomic.Bool
	// opSeq numbers ops across all loops: the span op id, and the fresh
	// client id of join-churn.
	opSeq atomic.Int64
	// onOp, when set, runs after every completed op (fed-mesh's op-scheduled
	// sync tick).
	onOp func()
	// cleanup runs in reverse order when the run ends.
	cleanup []func()
	// traced is the traced half-window, kept until every goroutine that
	// records spans has stopped.
	traced *phaseStats
}

// close stops everything the run started: connections, endpoints and with
// them the server goroutines that record spans.
func (b *bench) close() {
	for i := len(b.cleanup) - 1; i >= 0; i-- {
		b.cleanup[i]()
	}
	b.cleanup = nil
}

// loop is one closed-loop load connection: op runs one operation to
// completion and returns the wall time the client spent stalled in it.
type loop struct {
	lane *lane
	// prep, when set, runs before every op, outside the op's timing.
	prep func() error
	op   func(n int64) (stall time.Duration, err error)
}

// windowSlices is how many equal slices a measured window is cut into. Every
// end-to-end metric is computed per slice and reported as the median over the
// slices, so a burst of interference from a neighbour on the shared machine
// moves one slice, not the run.
const windowSlices = 5

// opSample is one completed op of a recorded window.
type opSample struct {
	end           time.Duration // since the window began
	opMs, stallMs float64
}

// mark is a reading of the process's resource counters.
type mark struct {
	at         time.Duration // since the window began
	cpu        time.Duration
	allocBytes uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes reads the cumulative heap allocation without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func markAt(start time.Time) mark {
	return mark{at: time.Since(start), cpu: cpuTime(), allocBytes: allocBytes()}
}

// phaseStats is what one window measured.
type phaseStats struct {
	attempted, failed int
	firstErr          error
	samples           []opSample
	marks             []mark // windowSlices+1 readings: slice i spans marks[i], marks[i+1]
	elapsed           time.Duration
	rss0, peakRSS     float64 // MiB: resident set as the window began, and the highest sampled in it
	mem0, mem1        runtime.MemStats
	tel0, tel1        telemetry.Samples
}

func (p *phaseStats) ops() float64 { return float64(p.attempted - p.failed) }

// tel returns the growth of a telemetry counter over the window.
func (p *phaseStats) tel(name string) float64 { return p.tel1.Value(name) - p.tel0.Value(name) }

// runPhase runs every loop closed-loop for d and, when record is set,
// measures the window. An op that started before the deadline completes and
// counts.
func (b *bench) runPhase(loops []*loop, d time.Duration, record bool) *phaseStats {
	p := &phaseStats{}
	type perLoop struct {
		attempted, failed int
		firstErr          error
		samples           []opSample
	}
	res := make([]perLoop, len(loops))
	if record {
		p.tel0 = telemetry.Snapshot()
		runtime.ReadMemStats(&p.mem0)
		b.measuring.Store(true)
	}
	start := time.Now()
	deadline := start.Add(d)
	p.rss0 = rssMiB()
	p.marks = append(p.marks, markAt(start))
	marked := make(chan struct{})
	go func() { // reads the counters at the inner slice boundaries
		defer close(marked)
		for i := 1; record && i < windowSlices; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / windowSlices)))
			p.marks = append(p.marks, markAt(start))
		}
	}()
	sampled := make(chan struct{})
	go func() { // samples the resident set until the window's deadline
		defer close(sampled)
		for record && time.Now().Before(deadline) {
			p.peakRSS = max(p.peakRSS, rssMiB())
			time.Sleep(rssSampleEvery)
		}
	}()
	var wg sync.WaitGroup
	for i, lp := range loops {
		wg.Add(1)
		go func(r *perLoop, lp *loop) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := b.opSeq.Add(1)
				if lp.lane != nil {
					lp.lane.op = n
				}
				var stall, dt time.Duration
				var err error
				if lp.prep != nil {
					err = lp.prep()
				}
				if err == nil {
					o := lp.lane.begin()
					t0 := time.Now()
					stall, err = lp.op(n)
					dt = time.Since(t0)
					lp.lane.end(o, "op")
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				if record {
					r.samples = append(r.samples, opSample{end: time.Since(start), opMs: float64(dt) / 1e6, stallMs: float64(stall) / 1e6})
				}
				if b.onOp != nil {
					b.onOp()
				}
			}
		}(&res[i], lp)
	}
	wg.Wait()
	<-marked
	<-sampled
	p.marks = append(p.marks, markAt(start))
	p.elapsed = time.Since(start)
	if record {
		b.measuring.Store(false)
		runtime.ReadMemStats(&p.mem1)
		p.tel1 = telemetry.Snapshot()
	}
	for _, r := range res {
		p.attempted += r.attempted
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
		p.samples = append(p.samples, r.samples...)
	}
	return p
}

// drive warms the loops up and runs the measured window. The untraced run
// measures one window and fills in the end-to-end metrics. The traced run
// splits the window: the first half runs with span recording off (the
// overhead baseline), the second half with it on, and the per-layer metrics
// come from the second.
func (b *bench) drive(loops []*loop) {
	// Set-up repetitions and traffic recording leave harness garbage behind;
	// hand it back to the OS so the window's resident set is the workload's.
	debug.FreeOSMemory()
	if w := b.runPhase(loops, b.sc.warmup, false); w.failed > 0 {
		b.rep.fail("warm-up: %d of %d ops failed: %v", w.failed, w.attempted, w.firstErr)
	}
	if b.tr == nil {
		p := b.runPhase(loops, b.window, true)
		b.account(p)
		b.endToEnd(p)
		return
	}
	base := b.runPhase(loops, b.window/2, true)
	b.account(base)
	b.tr.on.Store(true)
	p := b.runPhase(loops, b.window/2, true)
	b.tr.on.Store(false)
	b.account(p)
	b.vals["trace.overhead_pct"] = 100 * (1 - ratio(p.ops()/p.elapsed.Seconds(), base.ops()/base.elapsed.Seconds()))
	b.traced = p
}

// account folds a window's attempts into the report; fail_share is computed
// from attempts, and any failed op fails the run.
func (b *bench) account(p *phaseStats) {
	b.rep.Attempted += p.attempted
	b.rep.Failed += p.failed
	if p.failed > 0 {
		b.rep.fail("%d of %d ops failed: %v", p.failed, p.attempted, p.firstErr)
	}
	if p.attempted == p.failed {
		b.rep.fail("no op completed in the window")
	}
}

// endToEnd computes each metric per slice and reports the median slice.
func (b *bench) endToEnd(p *phaseStats) {
	per := map[string][]float64{}
	smallest := len(p.samples)
	for i := 0; i+1 < len(p.marks); i++ {
		m0, m1 := p.marks[i], p.marks[i+1]
		var opMs, stallMs []float64
		for _, s := range p.samples {
			// The last slice also takes the ops that were in flight at the
			// deadline.
			if s.end > m0.at && (s.end <= m1.at || i+2 == len(p.marks)) {
				opMs, stallMs = append(opMs, s.opMs), append(stallMs, s.stallMs)
			}
		}
		if len(opMs) == 0 {
			continue
		}
		smallest = min(smallest, len(opMs))
		sort.Float64s(opMs)
		sort.Float64s(stallMs)
		ops := float64(len(opMs))
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("ops_per_s", ops/(m1.at-m0.at).Seconds())
		add("op_ms_p50", percentile(opMs, 0.50))
		add("op_ms_p95", percentile(opMs, 0.95))
		add("stall_ms_p50", percentile(stallMs, 0.50))
		add("stall_ms_p95", percentile(stallMs, 0.95))
		add("cpu_ms_per_op", float64(m1.cpu-m0.cpu)/1e6/ops)
		add("alloc_kib_per_op", float64(m1.allocBytes-m0.allocBytes)/1024/ops)
	}
	b.rep.note("ops_per_s by slice, in window order: %.1f", per["ops_per_s"])
	for name, vals := range per {
		sort.Float64s(vals)
		b.vals[name] = percentile(vals, 0.50)
	}
	b.vals["peak_rss_mib"] = p.peakRSS
	b.rep.note("resident set %.1f MiB as the window began, %.1f MiB at its highest", p.rss0, p.peakRSS)
	for _, name := range []string{"op_ms_p50", "op_ms_p95", "stall_ms_p50", "stall_ms_p95"} {
		b.rep.samples[name] = smallest
	}
}

// layerCounts fills the per-layer metrics that come from counts and spans of
// the traced window. It reads every lane, so it runs after close.
func (b *bench) layerCounts(p *phaseStats, all []span) {
	ops, kops := p.ops(), p.ops()/1000
	v := b.vals
	v["fail_share"] = ratio(float64(b.rep.Failed), float64(b.rep.Attempted))

	v["transport.bytes_per_op"] = ratio(float64(b.tr.loadBytes.Load()), ops)
	v["transport.frames_per_op"] = ratio(float64(b.tr.loadFrames.Load()), ops)
	v["core.delta_cells_per_op"] = ratio(p.tel("coca_core_delta_cells_total"), ops)
	v["core.delta_evictions_per_op"] = ratio(p.tel("coca_core_delta_evictions_total"), ops)
	v["core.upload_cells_per_op"] = ratio(p.tel("coca_core_upload_merges_total"), ops)
	v["core.full_delta_share"] = ratio(float64(b.tr.fullDeltas.Load()), float64(b.tr.allocates.Load()))
	hits, misses := p.tel("coca_cache_probe_hits_total"), p.tel("coca_cache_probe_misses_total")
	v["cache.hit_share"] = ratio(hits, hits+misses)
	v["routing.redirects_per_op"] = ratio(p.tel("coca_routing_redirects_total"), ops)
	v["overload.sheds_per_kop"] = ratio(p.tel("coca_overload_sheds_total"), kops)
	v["overload.deadline_expired_per_kop"] = ratio(p.tel("coca_overload_deadline_expired_total"), kops)
	v["runtime.gc_cycles_per_kop"] = ratio(float64(p.mem1.NumGC-p.mem0.NumGC), kops)
	v["runtime.gc_pause_ms_per_s"] = ratio(float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, p.elapsed.Seconds())
	v["runtime.mallocs_per_op"] = ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), ops)
	v["semantics.space_build_s"] = b.sys.u.spaceBuild.Seconds()
	v["core.server_build_s"] = b.sys.u.serverBuild.Seconds()

	// Per-op shares count the load connections' spans only: they carry an op
	// id > 0, while fed-mesh's peer links run under the sync driver's
	// negative tick ids.
	var spans []span
	for _, s := range all {
		if s.Op > 0 {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	us := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return ratio(float64(ns)/1e3, ops)
	}
	v["transport.wire_us_per_op"] = us("client.conn")
	v["protocol.client_self_us_per_op"] = us("client.open", "client.allocate", "client.upload", "client.bye")
	v["protocol.server_self_us_per_op"] = us("server.conn")
	// Where the harness calls AllocView.Apply itself (the replay workloads)
	// the span is exact; where core.Client does (stream-ref, join-churn) it
	// is BeginRound's self time: apply, materialisation and cache.NewLocal.
	v["core.apply_us_per_op"] = us("apply", "begin_round")
	// The layers' self times sum to the ops' time less the op spans' own
	// self time: the part of an op no layer span covers.
	v["trace.budget_gap_pct"] = 100 * ratio(float64(self["op"]), float64(sumDur(spans, "op")))

	infer := durations(spans, "infer", 1e3)
	var inferUs float64
	for _, d := range infer {
		inferUs += d
	}
	frames := float64(len(infer) * b.sc.frames)
	v["cache.probes_per_frame"] = ratio(hits+misses, frames)
	v["core.infer_us_per_frame"] = ratio(inferUs, frames)

	pct := func(metric, name string, q float64) {
		d := durations(spans, name, 1e3)
		sort.Float64s(d)
		v[metric] = percentile(d, q)
	}
	pct("transport.dial_us_p50", "dial", 0.50)
	pct("protocol.hello_us_p50", "client.open", 0.50)
	pct("core.open_us_p50", "core.open", 0.50)
	pct("core.allocate_us_p50", "core.allocate", 0.50)
	pct("core.allocate_us_p95", "core.allocate", 0.95)
	pct("core.upload_us_p50", "core.upload", 0.50)
	pct("core.upload_us_p95", "core.upload", 0.95)
	pct("core.begin_round_us_p50", "begin_round", 0.50)
	pct("core.end_round_us_p50", "end_round", 0.50)
	pct("routing.redirect_us_p50", "redirect", 0.50)
}

func sumDur(spans []span, name string) int64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return ns
}

// rssSampleEvery is the period at which a measured window samples the
// process's resident set.
const rssSampleEvery = 20 * time.Millisecond

// rssMiB reads the process's current resident set, 0 if it cannot be read
// (runWorkload checks once, before the window, that it can).
func rssMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runWorkload stands the system up, runs wl and returns its report: the
// end-to-end metrics, or with traced set the per-layer metrics.
func runWorkload(wl workloadDef, sc scale, seed uint64, window time.Duration, traced bool, outDir string) (*report, error) {
	b := &bench{sc: sc, seed: seed, window: window, rep: newReport(), vals: map[string]float64{}}
	reps := sc.setupReps
	if traced {
		b.tr = newTracer()
		reps = 1 // set-up is an end-to-end metric; the traced run does not report it
	}
	defer b.close()
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var tr *tracer
		if i == 0 {
			tr = b.tr
		}
		sys, d, err := standUp(sc, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			b.sys = sys
			b.cleanup = append(b.cleanup, sys.ep.close)
		} else {
			sys.ep.close()
		}
	}
	sort.Float64s(setups)
	b.vals["setup_s"] = setups[len(setups)/2]
	if rssMiB() == 0 {
		return nil, fmt.Errorf("cannot read the resident set from /proc/self/statm")
	}

	if err := wl.run(b); err != nil {
		return nil, err
	}
	b.close()

	defs, zeroFill := endToEnd, false
	if traced {
		defs, zeroFill = perLayer, true
		spans := b.tr.all()
		b.layerCounts(b.traced, spans)
		b.replayCaptured()
		path, err := writeSpans(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", wl.Name, seed), spans)
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
	}
	if err := b.rep.seal(defs, b.vals, zeroFill); err != nil {
		return nil, err
	}
	return b.rep, nil
}
