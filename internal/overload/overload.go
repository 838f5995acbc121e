// Package overload is the graceful-degradation control plane: the small,
// dependency-free primitives every serving tier reaches for when demand
// exceeds capacity. It provides (1) deadline propagation helpers so client
// deadlines travel inside wire frames and expired work is dropped at
// dequeue instead of computed for nobody, (2) a per-server LoadTracker
// (in-flight depth + queue-wait EWMA) feeding (3) a CoDel-style Shedder
// that rejects sheddable work when queue wait stays above a target delay,
// (4) a leaky-bucket RetryBudget so retries cannot amplify an overload
// into congestion collapse, and (5) seeded backoff jitter so synchronized
// clients do not thunder-herd a recovering server.
//
// Everything here is deterministic under an injected clock and allocation
// free on the hot paths: the routing tier's shed decision is pinned at
// 0 allocs/op by routing.TestRouterAdmitSteadyStateAllocs, and LoadTracker
// is a pair of atomics.
package overload

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/xrand"
)

// Class labels a request for the shed decision. Allocations and uploads
// are critical — dropping them stalls a client's round. Speculative work
// (probe refreshes, prefetches, background resyncs) is sheddable: under
// pressure the fleet degrades those first, long before queues grow enough
// to threaten the critical path.
type Class uint8

const (
	// ClassCritical requests are never shed by queue depth (they are
	// still subject to rate limits, breakers and deadlines).
	ClassCritical Class = iota
	// ClassSheddable requests are rejected first under overload.
	ClassSheddable
)

// String names the class for traces and tables.
func (c Class) String() string {
	if c == ClassSheddable {
		return "sheddable"
	}
	return "critical"
}

// ---- deadline propagation ----

// Deadlines travel on the wire as microseconds since the Unix epoch
// (uint64, 0 = no deadline). Microsecond resolution keeps the field in
// one u64 while staying far below the timescales that matter here
// (milliseconds of queue wait).

// DeadlineMicros encodes a wall-clock deadline for a wire frame.
func DeadlineMicros(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	us := t.UnixMicro()
	if us <= 0 {
		return 0
	}
	return uint64(us)
}

// DeadlineTime decodes a wire deadline; ok is false when none was set.
func DeadlineTime(us uint64) (t time.Time, ok bool) {
	if us == 0 {
		return time.Time{}, false
	}
	return time.UnixMicro(int64(us)), true
}

// ---- per-server load tracking ----

// Snapshot is a point-in-time load reading for one server.
type Snapshot struct {
	// Depth is the number of in-flight coordination requests.
	Depth int
	// QueueWait is the smoothed (EWMA) time requests recently spent
	// queued before processing began.
	QueueWait time.Duration
}

// LoadReporter is implemented by serving tiers that can report their
// instantaneous load (core.Server, federation.Node). The routing tier
// consults it for the shed decision.
type LoadReporter interface {
	LoadSnapshot() Snapshot
}

// waitAlpha is the queue-wait EWMA smoothing factor: heavy enough that a
// burst registers within a handful of requests, light enough that one
// outlier does not trip the shedder.
const waitAlpha = 0.2

// LoadTracker tracks a server's in-flight depth and queue-wait EWMA with
// two atomics — safe for concurrent sessions, no locks, no allocations.
// All methods are nil-safe so wiring is optional.
type LoadTracker struct {
	now      func() time.Time
	inflight atomic.Int64
	waitNs   atomic.Uint64 // math.Float64bits of the EWMA in nanoseconds
}

// NewLoadTracker builds a tracker; now defaults to time.Now.
func NewLoadTracker(now func() time.Time) *LoadTracker {
	if now == nil {
		now = time.Now
	}
	return &LoadTracker{now: now}
}

// Arrive marks a request's arrival (depth++) and returns the arrival
// time to later pass to Start.
func (t *LoadTracker) Arrive() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.inflight.Add(1)
	return t.now()
}

// Start marks the moment processing begins for a request that arrived at
// the given time, folding the observed queue wait into the EWMA.
func (t *LoadTracker) Start(arrived time.Time) {
	if t == nil || arrived.IsZero() {
		return
	}
	wait := float64(t.now().Sub(arrived))
	if wait < 0 {
		wait = 0
	}
	for {
		old := t.waitNs.Load()
		ewma := math.Float64frombits(old)
		next := math.Float64bits(ewma + waitAlpha*(wait-ewma))
		if t.waitNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Done marks a request's completion (depth--).
func (t *LoadTracker) Done() {
	if t == nil {
		return
	}
	t.inflight.Add(-1)
}

// LoadSnapshot reads the current depth and queue-wait EWMA. A nil
// tracker reports an idle server.
func (t *LoadTracker) LoadSnapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return Snapshot{
		Depth:     int(t.inflight.Load()),
		QueueWait: time.Duration(math.Float64frombits(t.waitNs.Load())),
	}
}

// ---- CoDel-style shedding ----

// ShedConfig tunes the queue-depth shed decision. The zero value
// disables shedding entirely (Enabled reports false).
type ShedConfig struct {
	// Target is the acceptable standing queue wait. Sheddable work is
	// rejected once the queue-wait EWMA stays above Target for Interval
	// (CoDel's "standing queue" criterion, applied to admission instead
	// of drops).
	Target time.Duration
	// Interval is how long the wait must stay above Target before
	// shedding starts; a transient burst shorter than this is absorbed.
	// Defaults to 10×Target when unset.
	Interval time.Duration
	// MaxDepth, when positive, sheds sheddable work immediately once a
	// server's in-flight depth exceeds it, regardless of wait — the hard
	// backstop against unbounded queues.
	MaxDepth int
}

// Enabled reports whether any shed criterion is configured.
func (c ShedConfig) Enabled() bool { return c.Target > 0 || c.MaxDepth > 0 }

// WithDefaults fills derived fields.
func (c ShedConfig) WithDefaults() ShedConfig {
	if c.Target > 0 && c.Interval == 0 {
		c.Interval = 10 * c.Target
	}
	return c
}

// Shedder decides, per server, whether sheddable work should be rejected
// right now. It is a value type embedded in the caller's per-server
// state and protected by the caller's lock; Admit never allocates.
type Shedder struct {
	cfg        ShedConfig
	firstAbove time.Time // zero while wait ≤ target
	shedding   bool
}

// NewShedder builds a shedder from the (defaulted) config.
func NewShedder(cfg ShedConfig) Shedder {
	return Shedder{cfg: cfg.WithDefaults()}
}

// Admit reports whether a request of the given class may proceed given
// the server's load snapshot. Critical work is always admitted; the
// caller's rate limits, breakers and deadlines still apply to it.
func (s *Shedder) Admit(now time.Time, snap Snapshot, class Class) bool {
	if class == ClassCritical || !s.cfg.Enabled() {
		return true
	}
	if s.cfg.MaxDepth > 0 && snap.Depth > s.cfg.MaxDepth {
		return false
	}
	if s.cfg.Target <= 0 {
		return true
	}
	if snap.QueueWait <= s.cfg.Target {
		// Below target: the standing queue is gone, stop shedding.
		s.firstAbove = time.Time{}
		s.shedding = false
		return true
	}
	if s.firstAbove.IsZero() {
		// First observation above target: start the interval clock but
		// absorb the burst for now.
		s.firstAbove = now
		return true
	}
	if s.shedding || now.Sub(s.firstAbove) >= s.cfg.Interval {
		s.shedding = true
		return false
	}
	return true
}

// Shedding reports whether the shedder is currently rejecting sheddable
// work (for stats and tests).
func (s *Shedder) Shedding() bool { return s.shedding }

// ---- retry budgets ----

// RetryBudgetConfig tunes the per-client leaky-bucket retry budget: each
// first attempt earns Ratio tokens, each retry spends one. A fleet in
// steady state therefore retries at most Ratio× its request rate —
// retries cannot amplify an overload into collapse.
type RetryBudgetConfig struct {
	// Ratio is the fraction of attempts that may be retried in
	// sustained overload (default 0.1).
	Ratio float64
	// Burst is the bucket capacity and initial fill, so a cold client
	// can still ride out one bad dial with its full retry schedule
	// (default 3 — coca.Options' default DialRetries).
	Burst float64
}

func (c RetryBudgetConfig) withDefaults() RetryBudgetConfig {
	if c.Ratio == 0 {
		c.Ratio = 0.1
	}
	if c.Burst == 0 {
		c.Burst = 3
	}
	return c
}

// RetryBudget is a concurrency-safe leaky-bucket retry budget. All
// methods are nil-safe; a nil budget always allows.
type RetryBudget struct {
	mu     sync.Mutex
	cfg    RetryBudgetConfig
	tokens float64
}

// NewRetryBudget builds a budget starting at full burst.
func NewRetryBudget(cfg RetryBudgetConfig) *RetryBudget {
	cfg = cfg.withDefaults()
	return &RetryBudget{cfg: cfg, tokens: cfg.Burst}
}

// Note credits the budget for one first attempt.
func (b *RetryBudget) Note() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+b.cfg.Ratio, b.cfg.Burst)
	b.mu.Unlock()
}

// Allow spends one token for a retry; false means the budget is
// exhausted and the caller must fail fast instead of retrying.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reads the current balance (tests and stats).
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return math.Inf(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// ---- seeded backoff jitter ----

// maxBackoffShift caps exponential growth so the shifted base cannot
// overflow a Duration even after many attempts.
const maxBackoffShift = 16

// Backoff returns the delay before retry number attempt (0-based): the
// exponential base*2^attempt, equal-jittered into [d/2, d] by a PCG
// stream keyed on (seed, attempt). Deterministic for a fixed seed —
// tests pin the schedule — while distinct seeds (per client, per
// address) decorrelate a fleet's retries after a shared brown-out.
func Backoff(base time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := base << uint(shift)
	half := d / 2
	r := xrand.New(seed, uint64(attempt)+1)
	return half + time.Duration(r.Int64N(int64(half)+1))
}
