// Package telemetry is the process-wide live-metrics registry and trace
// sink for the serve path. It complements internal/metrics (end-of-run
// accuracy/latency summaries) with *runtime* observability: counters,
// gauges and fixed-bucket histograms whose record paths are lock-free and
// allocation-free, a Prometheus-text /metrics handler, a Snapshot API for
// in-process readers, and a JSON-lines event tracer for round/sync/session
// lifecycle (see trace.go).
//
// The record-path discipline matches the repo's zero-alloc hot paths
// (pinned by AllocsPerRun tests): every instrument is pre-registered at
// package init, updates are single atomic ops on padded cells, and vector
// instruments are indexed by small dense ints (cache site, membership
// state) — never by map lookup. Rendering (label strings, float
// formatting) happens only at snapshot/exposition time, off the hot path.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Sample is one exposed series value at snapshot time. Histograms expand
// into <name>_bucket (with a le="..." label), <name>_sum and <name>_count
// samples, mirroring the Prometheus text exposition.
type Sample struct {
	Name  string // series name, e.g. "coca_core_allocations_total"
	Label string // rendered label pair, e.g. `site="3"`; "" when unlabeled
	Value float64
}

// Samples is a point-in-time snapshot of a registry.
type Samples []Sample

// Value sums every sample with the given series name (summing across
// label values for vector instruments). Missing series read as 0.
func (s Samples) Value(name string) float64 {
	var total float64
	for i := range s {
		if s[i].Name == name {
			total += s[i].Value
		}
	}
	return total
}

// Labeled returns the sample with the given name and rendered label pair
// (e.g. `state="alive"`). Missing series read as 0.
func (s Samples) Labeled(name, label string) float64 {
	for i := range s {
		if s[i].Name == name && s[i].Label == label {
			return s[i].Value
		}
	}
	return 0
}

// instrument is the registry-facing side of every metric kind.
type instrument interface {
	describe() (name, help, kind string)
	collect(dst Samples) Samples
}

// Registry holds an ordered set of uniquely named instruments. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use; registration is expected at init time, collection at
// scrape/shutdown time, and neither touches the record paths.
type Registry struct {
	mu          sync.Mutex
	instruments []instrument
	names       map[string]struct{}
}

// NewRegistry returns an empty registry. Most callers use the package
// default (Default) so every tier lands in one /metrics page; private
// registries exist for tests and benchmarks.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(inst instrument) {
	name, _, _ := inst.describe()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic("telemetry: duplicate instrument " + name)
	}
	r.names[name] = struct{}{}
	r.instruments = append(r.instruments, inst)
}

// sorted returns the instruments ordered by name, for deterministic
// snapshots and exposition pages.
func (r *Registry) sorted() []instrument {
	r.mu.Lock()
	insts := make([]instrument, len(r.instruments))
	copy(insts, r.instruments)
	r.mu.Unlock()
	sort.Slice(insts, func(i, j int) bool {
		ni, _, _ := insts[i].describe()
		nj, _, _ := insts[j].describe()
		return ni < nj
	})
	return insts
}

// Snapshot collects every registered instrument into a flat sample list,
// ordered by instrument name. Values are read with atomic loads, so a
// snapshot taken under concurrent writers is a consistent-enough view for
// reporting (each individual series is exact at its read instant).
func (r *Registry) Snapshot() Samples {
	var out Samples
	for _, inst := range r.sorted() {
		out = inst.collect(out)
	}
	return out
}

// std is the process-wide default registry; the per-tier instruments in
// instruments.go all register here.
var std = NewRegistry()

// Snapshot collects the default registry (the instruments wired through
// core, cache, federation, routing and engine).
func Snapshot() Samples { return std.Snapshot() }

// --- Counter ---

// Counter is a monotonically increasing uint64. Inc/Add are single atomic
// adds: 0 allocs/op, no locks. The pad keeps hot cells from false-sharing
// a cache line with neighboring instruments.
type Counter struct {
	v    atomic.Uint64
	_    [56]byte
	name string
	help string
}

// Counter creates and registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return std.Counter(name, help) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

func (c *Counter) describe() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) collect(dst Samples) Samples {
	return append(dst, Sample{Name: c.name, Value: float64(c.v.Load())})
}

// --- Gauge ---

// Gauge is an instantaneous int64 (open sessions, members per state).
// All updates are single atomic ops: 0 allocs/op, no locks.
type Gauge struct {
	v    atomic.Int64
	_    [56]byte
	name string
	help string
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewGauge registers a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return std.Gauge(name, help) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) describe() (string, string, string) { return g.name, g.help, "gauge" }

func (g *Gauge) collect(dst Samples) Samples {
	return append(dst, Sample{Name: g.name, Value: float64(g.v.Load())})
}

// --- Histogram ---

// Histogram is a fixed-bucket distribution (latencies, exchange sizes).
// Bounds are chosen at registration and never change, so Observe is a
// short linear scan over ≤ ~16 bounds plus three atomic ops — 0 allocs,
// no locks, and no dynamic bucket management on the record path (the
// reason this registry refuses sparse/adaptive buckets).
type Histogram struct {
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	name   string
	help   string
}

// Histogram creates and registers a histogram with the given ascending
// bucket upper bounds. The bounds slice is retained; do not mutate it.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{
		counts: make([]atomic.Uint64, len(bounds)+1),
		bounds: bounds,
		name:   name,
		help:   help,
	}
	r.register(h)
	return h
}

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return std.Histogram(name, help, bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) describe() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) collect(dst Samples) Samples {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		dst = append(dst, Sample{
			Name:  h.name + "_bucket",
			Label: `le="` + le + `"`,
			Value: float64(cum),
		})
	}
	dst = append(dst, Sample{Name: h.name + "_sum", Value: h.Sum()})
	dst = append(dst, Sample{Name: h.name + "_count", Value: float64(h.count.Load())})
	return dst
}

// --- Vector instruments ---

// cell is one padded atomic slot of a vector instrument.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// CounterVec is a counter family indexed by a small dense int (model cut
// site, rejection cause). The record path is an atomic pointer load, a
// bounds check and an atomic add — no map lookup, no lock, 0 allocs.
// Slots grow on first touch of a new index (rare: index spaces are model
// layers or fixed enums), behind a mutex off the hot path.
//
// Label rendering is deferred to collect time: index i exposes as
// key="vals[i]" when fixed label values were registered, else key="i".
type CounterVec struct {
	slots atomic.Pointer[[]*cell]
	mu    sync.Mutex
	name  string
	help  string
	key   string
	vals  []string // optional fixed label values, indexed by slot
}

// CounterVec creates and registers a counter vector with label key. When
// vals are given they name the slots (slot i ⇒ key="vals[i]") and the
// cells are preallocated; otherwise slots are integer-labeled and grown
// on demand.
func (r *Registry) CounterVec(name, help, key string, vals ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, key: key, vals: vals}
	if len(vals) > 0 {
		v.grow(len(vals) - 1)
	}
	r.register(v)
	return v
}

// NewCounterVec registers a counter vector on the default registry.
func NewCounterVec(name, help, key string, vals ...string) *CounterVec {
	return std.CounterVec(name, help, key, vals...)
}

func (v *CounterVec) cell(i int) *cell {
	if s := v.slots.Load(); s != nil && i < len(*s) {
		return (*s)[i]
	}
	return v.grow(i)
}

// grow extends the slot slice to cover index i. Existing cells are shared
// between the old and new slice headers, so concurrent readers of the old
// snapshot keep hitting the same atomics.
func (v *CounterVec) grow(i int) *cell {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.slots.Load()
	var prev []*cell
	if old != nil {
		prev = *old
	}
	if i < len(prev) { // lost the race to another grower
		return prev[i]
	}
	next := make([]*cell, i+1)
	copy(next, prev)
	for j := len(prev); j < len(next); j++ {
		next[j] = &cell{}
	}
	v.slots.Store(&next)
	return next[i]
}

// Inc adds 1 to slot i.
func (v *CounterVec) Inc(i int) { v.cell(i).v.Add(1) }

// Add adds n to slot i.
func (v *CounterVec) Add(i int, n uint64) { v.cell(i).v.Add(n) }

// Load returns slot i's value (0 if never touched).
func (v *CounterVec) Load(i int) uint64 {
	if s := v.slots.Load(); s != nil && i < len(*s) {
		return (*s)[i].v.Load()
	}
	return 0
}

func (v *CounterVec) label(i int) string {
	if i < len(v.vals) {
		return v.key + `="` + v.vals[i] + `"`
	}
	return v.key + `="` + itoa(i) + `"`
}

func (v *CounterVec) describe() (string, string, string) { return v.name, v.help, "counter" }

func (v *CounterVec) collect(dst Samples) Samples {
	s := v.slots.Load()
	if s == nil {
		return dst
	}
	for i, c := range *s {
		dst = append(dst, Sample{Name: v.name, Label: v.label(i), Value: float64(c.v.Load())})
	}
	return dst
}

// GaugeVec is a gauge family over a fixed, registration-time label set
// (membership states, breaker states). Cells are preallocated, so the
// record path is a plain indexed atomic op: 0 allocs, no locks, no growth
// path at all.
type GaugeVec struct {
	cells []gcell
	name  string
	help  string
	key   string
	vals  []string
}

type gcell struct {
	v atomic.Int64
	_ [56]byte
}

// GaugeVec creates and registers a gauge vector with one preallocated
// slot per label value.
func (r *Registry) GaugeVec(name, help, key string, vals ...string) *GaugeVec {
	if len(vals) == 0 {
		panic("telemetry: GaugeVec needs at least one label value: " + name)
	}
	v := &GaugeVec{cells: make([]gcell, len(vals)), name: name, help: help, key: key, vals: vals}
	r.register(v)
	return v
}

// NewGaugeVec registers a gauge vector on the default registry.
func NewGaugeVec(name, help, key string, vals ...string) *GaugeVec {
	return std.GaugeVec(name, help, key, vals...)
}

// Add adds d (which may be negative) to slot i.
func (v *GaugeVec) Add(i int, d int64) { v.cells[i].v.Add(d) }

// Inc adds 1 to slot i.
func (v *GaugeVec) Inc(i int) { v.cells[i].v.Add(1) }

// Dec subtracts 1 from slot i.
func (v *GaugeVec) Dec(i int) { v.cells[i].v.Add(-1) }

// Move decrements slot from and increments slot to — the state-transition
// primitive (alive→suspect, closed→open). No-op when from == to.
func (v *GaugeVec) Move(from, to int) {
	if from == to {
		return
	}
	v.cells[from].v.Add(-1)
	v.cells[to].v.Add(1)
}

// Load returns slot i's value.
func (v *GaugeVec) Load(i int) int64 { return v.cells[i].v.Load() }

func (v *GaugeVec) describe() (string, string, string) { return v.name, v.help, "gauge" }

func (v *GaugeVec) collect(dst Samples) Samples {
	for i := range v.cells {
		dst = append(dst, Sample{
			Name:  v.name,
			Label: v.key + `="` + v.vals[i] + `"`,
			Value: float64(v.cells[i].v.Load()),
		})
	}
	return dst
}
